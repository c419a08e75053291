/**
 * @file
 * neobench — the in-process half of the benchmark (perfbench/run.py
 * builds it and drives it; see perfbench/README.md).
 *
 *   neobench --phase verify|sim --workload paper|small --seed N
 *            --seconds S --trace 0|1 [--out DIR] [--inject K]
 *            [--started-at T]
 *   neobench --phase service-reference --workload paper|small
 *            [--trace 0|1]
 *
 * A workload runs three phases in turn: verify and sim in process
 * here, and the service through neoverify (perfbench/service.py). The
 * first form measures one in-process phase and prints its result as
 * the last line of stdout (one JSON object). The second prints, as
 * JSON, what the service phase checks its verdicts against:
 * sequential explorer counts of the verified jobs and the mutant
 * corpus.
 * Exit status: 0 when every correctness check held, 1 when one did
 * not, 2 on a usage error.
 */

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"

namespace bench
{

namespace
{

void
putJsonString(std::FILE *f, const std::string &s)
{
    std::fputc('"', f);
    for (const char c : s) {
        if (c == '"' || c == '\\')
            std::fputc('\\', f);
        if (static_cast<unsigned char>(c) < 0x20)
            std::fprintf(f, "\\u%04x", c);
        else
            std::fputc(c, f);
    }
    std::fputc('"', f);
}

[[noreturn]] void
usageError(const char *msg)
{
    std::fprintf(stderr,
                 "neobench: %s\n"
                 "usage: neobench --phase NAME --workload NAME "
                 "[--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR] "
                 "[--inject mutant|nsmesi|count] [--started-at T]\n",
                 msg);
    std::exit(2);
}

} // namespace

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f, "%s\n {\"id\": %zu, \"name\": ", i ? "," : "",
                     i);
        putJsonString(f, s.name);
        std::fprintf(f,
                     ", \"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                     "\"group\": %u}",
                     s.start, s.end, s.parent, s.group);
    }
    std::fprintf(f, "],\n\"counts\": [");
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const Count &c = counts_[i];
        std::fprintf(f, "%s\n {\"name\": ", i ? "," : "");
        putJsonString(f, c.name);
        std::fprintf(f, ", \"group\": %u, \"value\": %.17g}", c.group,
                     c.value);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

void
Report::print() const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    bool first = true;
    for (const auto &[name, vu] : metrics_) {
        if (!std::isfinite(vu.first))
            continue;
        std::printf("%s", first ? "" : ", ");
        putJsonString(stdout, name);
        std::printf(": {\"value\": %.17g, \"unit\": ", vu.first);
        putJsonString(stdout, vu.second);
        std::printf("}");
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace bench

int
main(int argc, char **argv)
{
    using namespace bench;
    Options opt;
    opt.t0 = monoNow();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--phase")
            opt.phase = next();
        else if (arg == "--workload")
            opt.workload = next();
        else if (arg == "--seed")
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            opt.seconds = std::strtod(next().c_str(), nullptr);
        else if (arg == "--trace")
            opt.trace = next() == "1";
        else if (arg == "--out")
            opt.outDir = next();
        else if (arg == "--inject")
            opt.inject = next();
        else if (arg == "--started-at")
            opt.t0 = std::strtod(next().c_str(), nullptr);
        else
            usageError(("unknown option " + arg).c_str());
    }
    if (!opt.inject.empty() && opt.inject != "mutant" &&
        opt.inject != "nsmesi" && opt.inject != "count")
        usageError("unknown --inject kind");
    if (!sizesFor(opt.workload, opt.sizes))
        usageError("unknown workload");

    if (opt.phase == "service-reference")
        return runServiceReference(opt);

    Report rep;
    Tracer tr(opt.trace);
    int rc = 0;
    if (opt.phase == "verify")
        rc = runVerify(opt, rep, tr);
    else if (opt.phase == "sim")
        rc = runSim(opt, rep, tr);
    else
        usageError("unknown phase");
    if (tr.on()) {
        const std::string path = opt.outDir + "/trace-" + opt.workload +
                                  "-" + opt.phase + "-seed" +
                                  std::to_string(opt.seed) + ".json";
        rep.expect(tr.write(path), "writing the trace to " + path);
    }
    rep.print();
    return rc != 0 || !rep.correct() ? 1 : 0;
}
