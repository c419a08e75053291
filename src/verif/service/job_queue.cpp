#include "job_queue.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "sim/io_retry.hpp"
#include "sim/logging.hpp"
#include "verif/explorer.hpp"
#include "verif/service/wire.hpp"

namespace neo
{

// ---------------------------------------------------------------
// Spec / result / manifest codecs
// ---------------------------------------------------------------

void
JobSpec::encodeBase(SnapshotWriter &w) const
{
    putString(w, features);
    putString(w, system);
    putString(w, method);
    putString(w, mutant);
    w.putU64(n);
    w.putU64(maxStates);
    w.putF64(maxSeconds);
    w.putU64(crashAfter);
    w.putU32(workers);
}

bool
JobSpec::decodeBase(SnapshotReader &r, JobSpec &out)
{
    out.features = getString(r);
    out.system = getString(r);
    out.method = getString(r);
    out.mutant = getString(r);
    out.n = r.getU64();
    out.maxStates = r.getU64();
    out.maxSeconds = r.getF64();
    out.crashAfter = r.getU64();
    out.workers = r.getU32();
    out.holdAfter = 0;
    return r.ok();
}

void
JobSpec::encode(SnapshotWriter &w) const
{
    encodeBase(w);
    w.putU64(holdAfter);
}

bool
JobSpec::decode(SnapshotReader &r, JobSpec &out)
{
    if (!decodeBase(r, out))
        return false;
    if (!r.atEnd())
        out.holdAfter = r.getU64();
    return r.ok();
}

std::string
JobSpec::summary() const
{
    std::ostringstream os;
    if (!mutant.empty())
        os << "mutant " << mutant;
    else if (features == "german")
        os << "german n=" << n;
    else
        os << features << " (" << system << ", " << method
           << ") n=" << n;
    if (crashAfter != 0)
        os << " crash-after=" << crashAfter;
    if (holdAfter != 0)
        os << " hold-after=" << holdAfter;
    if (workers != 0)
        os << " workers=" << workers;
    return os.str();
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Pending: return "PENDING";
      case JobState::Running: return "RUNNING";
      case JobState::Done: return "DONE";
      case JobState::Quarantined: return "QUARANTINED";
      case JobState::Cancelled: return "CANCELLED";
    }
    return "?";
}

void
JobResult::encode(SnapshotWriter &w) const
{
    w.putU8(statusCode);
    w.putU64(states);
    w.putU64(transitions);
    w.putU64(invariantChecks);
    w.putF64(seconds);
    putString(w, violatedInvariant);
    putString(w, detail);
}

bool
JobResult::decode(SnapshotReader &r, JobResult &out)
{
    out.statusCode = r.getU8();
    out.states = r.getU64();
    out.transitions = r.getU64();
    out.invariantChecks = r.getU64();
    out.seconds = r.getF64();
    out.violatedInvariant = getString(r);
    out.detail = getString(r);
    return r.ok();
}

namespace
{

void
encodeManifest(SnapshotWriter &w, const CkptManifest &m)
{
    w.putU64(m.epoch);
    w.putU32(m.parts);
    w.putU64(m.states);
    w.putU64(m.transitions);
    w.putU64(m.invariantChecks);
    w.putF64(m.seconds);
}

CkptManifest
decodeManifest(SnapshotReader &r)
{
    CkptManifest m;
    m.epoch = r.getU64();
    m.parts = r.getU32();
    m.states = r.getU64();
    m.transitions = r.getU64();
    m.invariantChecks = r.getU64();
    m.seconds = r.getF64();
    return m;
}

/** Full-job codec for compaction snapshots: everything a replay of
 *  the original records would have reconstructed (notBefore stays
 *  volatile by design — a restart retries immediately). */
void
encodeJobFull(SnapshotWriter &w, const Job &job)
{
    w.putU64(job.id);
    job.spec.encodeBase(w);
    w.putU8(static_cast<std::uint8_t>(job.state));
    w.putU32(job.attempts);
    w.putU32(job.nextWorkers);
    encodeManifest(w, job.ckpt);
    job.result.encode(w);
    putString(w, job.lastFailure);
}

bool
decodeJobFull(SnapshotReader &r, Job &job)
{
    job.id = r.getU64();
    if (!JobSpec::decodeBase(r, job.spec))
        return false;
    job.state = static_cast<JobState>(r.getU8());
    job.attempts = r.getU32();
    job.nextWorkers = r.getU32();
    job.ckpt = decodeManifest(r);
    if (!JobResult::decode(r, job.result))
        return false;
    job.lastFailure = getString(r);
    return r.ok();
}

/** Compaction snapshot job table: the job entries (spec in its base
 *  layout), then one holdAfter per job. Snapshots written before
 *  holdAfter existed end after the entries and decode with 0. */
void
encodeSnapshotJobs(SnapshotWriter &w,
                   const std::map<std::uint64_t, Job> &jobs)
{
    w.putU32(static_cast<std::uint32_t>(jobs.size()));
    for (const auto &[id, job] : jobs)
        encodeJobFull(w, job);
    for (const auto &[id, job] : jobs)
        w.putU64(job.spec.holdAfter);
}

/** @return false on a truncated table; @p out then holds the entries
 *  decoded before the cut. */
bool
decodeSnapshotJobs(SnapshotReader &r, std::vector<Job> &out)
{
    const std::uint32_t count = r.getU32();
    for (std::uint32_t i = 0; i < count; ++i) {
        Job job;
        if (!decodeJobFull(r, job))
            return false;
        out.push_back(std::move(job));
    }
    if (!r.atEnd())
        for (Job &job : out)
            job.spec.holdAfter = r.getU64();
    return r.ok();
}

} // namespace

// ---------------------------------------------------------------
// Journal
// ---------------------------------------------------------------

JobJournal::~JobJournal()
{
    close();
}

void
JobJournal::close()
{
    if (fd_ >= 0)
        ::close(fd_);
    fd_ = -1;
}

bool
JobJournal::open(const std::string &path, std::string &err)
{
    close();
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ < 0) {
        err = path + ": " + std::strerror(errno);
        return false;
    }
    path_ = path;
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    bytes_ = size > 0 ? static_cast<std::uint64_t>(size) : 0;
    dirty_ = false;
    return true;
}

bool
JobJournal::replay(const std::function<void(std::uint8_t,
                                            SnapshotReader &)> &cb,
                   std::string &err)
{
    neo_assert(fd_ >= 0, "journal not open");
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size < 0) {
        err = std::string("lseek: ") + std::strerror(errno);
        return false;
    }
    std::vector<std::uint8_t> log(static_cast<std::size_t>(size));
    if (::lseek(fd_, 0, SEEK_SET) < 0 ||
        (!log.empty() && !readFull(fd_, log.data(), log.size()))) {
        err = std::string("read: ") + std::strerror(errno);
        return false;
    }

    std::size_t pos = 0;
    std::size_t good = 0;
    while (log.size() - pos >= 9) {
        std::uint32_t len, crc;
        std::memcpy(&len, log.data() + pos, 4);
        std::memcpy(&crc, log.data() + pos + 4, 4);
        if (len == 0 || len > kMaxFrameBytes ||
            log.size() - pos - 8 < len)
            break; // torn tail
        const std::uint8_t *payload = log.data() + pos + 8;
        if (crc32(payload, len) != crc)
            break; // corrupt tail
        SnapshotReader body(payload + 1, len - 1);
        cb(payload[0], body);
        pos += 8 + len;
        good = pos;
    }
    if (good != log.size()) {
        // A mid-append kill left a partial record; truncating it is
        // the whole point of journal-first — the record was never
        // acknowledged, so dropping it loses nothing.
        neo_warn("journal: truncating torn tail (",
                 log.size() - good, " bytes)");
        if (::ftruncate(fd_, static_cast<off_t>(good)) != 0) {
            err = std::string("ftruncate: ") + std::strerror(errno);
            return false;
        }
        if (!fsyncRetry(fd_)) {
            err = std::string("fsync: ") + std::strerror(errno);
            return false;
        }
    }
    if (::lseek(fd_, static_cast<off_t>(good), SEEK_SET) < 0) {
        err = std::string("lseek: ") + std::strerror(errno);
        return false;
    }
    bytes_ = good;
    return true;
}

namespace
{

std::vector<std::uint8_t>
encodeRecord(std::uint8_t type, const std::vector<std::uint8_t> &body)
{
    std::vector<std::uint8_t> rec(8 + 1 + body.size());
    const std::uint32_t len =
        static_cast<std::uint32_t>(1 + body.size());
    std::memcpy(rec.data(), &len, 4);
    rec[8] = type;
    if (!body.empty())
        std::memcpy(rec.data() + 9, body.data(), body.size());
    const std::uint32_t crc = crc32(rec.data() + 8, len);
    std::memcpy(rec.data() + 4, &crc, 4);
    return rec;
}

} // namespace

bool
JobJournal::append(std::uint8_t type,
                   const std::vector<std::uint8_t> &body, bool sync)
{
    neo_assert(fd_ >= 0, "journal not open");
    const std::vector<std::uint8_t> rec = encodeRecord(type, body);
    if (!writeFull(fd_, rec.data(), rec.size()))
        return false;
    bytes_ += rec.size();
    dirty_ = true;
    return sync ? this->sync() : true;
}

bool
JobJournal::sync()
{
    neo_assert(fd_ >= 0, "journal not open");
    if (!dirty_)
        return true;
    if (!fsyncRetry(fd_))
        return false;
    dirty_ = false;
    return true;
}

bool
JobJournal::rewrite(std::uint8_t type,
                    const std::vector<std::uint8_t> &body,
                    std::string &err)
{
    neo_assert(fd_ >= 0, "journal not open");
    const std::string tmp = path_ + ".compact.tmp";
    const int nfd =
        ::open(tmp.c_str(),
               O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (nfd < 0) {
        err = tmp + ": " + std::strerror(errno);
        return false;
    }
    const std::vector<std::uint8_t> rec = encodeRecord(type, body);
    if (!writeFull(nfd, rec.data(), rec.size()) ||
        !fsyncRetry(nfd)) {
        err = tmp + ": " + std::strerror(errno);
        ::close(nfd);
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path_.c_str()) != 0) {
        err = std::string("rename: ") + std::strerror(errno);
        ::close(nfd);
        ::unlink(tmp.c_str());
        return false;
    }
    // Until the rename is durable the old log can reappear after a
    // power cut — which replays to the same state, so correctness
    // never depends on this fsync, only compaction's permanence.
    const std::size_t slash = path_.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : path_.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        fsyncRetry(dfd);
        ::close(dfd);
    }
    ::close(fd_);
    fd_ = nfd;
    bytes_ = rec.size();
    dirty_ = false;
    return true;
}

// ---------------------------------------------------------------
// Queue
// ---------------------------------------------------------------

bool
JobQueue::open(const std::string &path, double now, std::string &err)
{
    if (!journal_.open(path, err))
        return false;
    bool ok = journal_.replay(
        [&](std::uint8_t type, SnapshotReader &r) {
            switch (type) {
              case kRecSubmit: {
                  Job job;
                  job.id = r.getU64();
                  if (!JobSpec::decode(r, job.spec))
                      return;
                  job.state = JobState::Pending;
                  nextId_ = std::max(nextId_, job.id + 1);
                  jobs_[job.id] = std::move(job);
                  break;
              }
              case kRecStart: {
                  const std::uint64_t id = r.getU64();
                  const std::uint32_t attempt = r.getU32();
                  const std::uint32_t workers = r.getU32();
                  Job *job = find(id);
                  if (job != nullptr) {
                      job->attempts = attempt;
                      job->nextWorkers = workers;
                      job->state = JobState::Running;
                  }
                  break;
              }
              case kRecDone: {
                  const std::uint64_t id = r.getU64();
                  JobResult res;
                  if (!JobResult::decode(r, res))
                      return;
                  Job *job = find(id);
                  if (job != nullptr) {
                      job->result = std::move(res);
                      job->state = JobState::Done;
                  }
                  break;
              }
              case kRecFail: {
                  const std::uint64_t id = r.getU64();
                  const std::uint32_t attempt = r.getU32();
                  const std::uint32_t workers = r.getU32();
                  const std::string reason = getString(r);
                  Job *job = find(id);
                  if (job != nullptr) {
                      job->attempts = attempt;
                      job->nextWorkers = workers;
                      job->lastFailure = reason;
                      job->state = JobState::Pending;
                  }
                  break;
              }
              case kRecCancel: {
                  Job *job = find(r.getU64());
                  if (job != nullptr)
                      job->state = JobState::Cancelled;
                  break;
              }
              case kRecQuarantine: {
                  const std::uint64_t id = r.getU64();
                  const std::string reason = getString(r);
                  Job *job = find(id);
                  if (job != nullptr) {
                      job->lastFailure = reason;
                      job->state = JobState::Quarantined;
                  }
                  break;
              }
              case kRecCheckpoint: {
                  const std::uint64_t id = r.getU64();
                  const CkptManifest m = decodeManifest(r);
                  maxEpoch_ = std::max(maxEpoch_, m.epoch);
                  Job *job = find(id);
                  if (job != nullptr)
                      job->ckpt = m;
                  break;
              }
              case kRecSnapshot: {
                  // Compaction point: everything before it is folded
                  // in; reset and load, then let the tail apply.
                  jobs_.clear();
                  nextId_ = std::max<std::uint64_t>(1, r.getU64());
                  maxEpoch_ = r.getU64();
                  std::vector<Job> loaded;
                  decodeSnapshotJobs(r, loaded);
                  for (Job &job : loaded) {
                      nextId_ = std::max(nextId_, job.id + 1);
                      jobs_[job.id] = std::move(job);
                  }
                  break;
              }
              default:
                  neo_warn("journal: skipping unknown record type ",
                           static_cast<int>(type));
            }
        },
        err);
    if (!ok)
        return false;

    // A job still Running after replay is the smoking gun of a dead
    // coordinator: its START was journaled but no verdict ever was.
    // That attempt failed by definition — count it, so a job that
    // kills the coordinator itself still quarantines eventually.
    for (auto &[id, job] : jobs_) {
        if (job.state != JobState::Running)
            continue;
        job.lastFailure = "attempt lost to a coordinator crash";
        if (job.attempts >= retryLimit_) {
            quarantine(job, job.lastFailure);
        } else {
            job.state = JobState::Pending;
            job.notBefore = now; // retry immediately on restart
        }
    }
    return true;
}

bool
JobQueue::append(std::uint8_t type,
                 const std::vector<std::uint8_t> &body)
{
    if (!journal_.append(type, body, !groupCommit_))
        neo_fatal("journal append failed: ", std::strerror(errno));
    return true;
}

void
JobQueue::commit()
{
    if (!journal_.sync())
        neo_fatal("journal fsync failed: ", std::strerror(errno));
    if (compactBytes_ != 0 && journal_.bytes() > compactBytes_)
        compactNow();
}

void
JobQueue::compactNow()
{
    SnapshotWriter w;
    w.putU64(nextId_);
    w.putU64(maxEpoch_);
    encodeSnapshotJobs(w, jobs_);
    const std::uint64_t before = journal_.bytes();
    std::string err;
    if (!journal_.rewrite(kRecSnapshot, w.take(), err)) {
        // The old log is still intact (rewrite is atomic), so this
        // is survivable — just noisy. Try again at the next commit.
        neo_warn("journal: compaction failed: ", err);
        return;
    }
    neo_inform("journal: compacted ", before, " -> ",
               journal_.bytes(), " bytes (", jobs_.size(), " jobs)");
}

std::uint64_t
JobQueue::submit(const JobSpec &spec)
{
    Job job;
    job.id = nextId_++;
    job.spec = spec;
    SnapshotWriter w;
    w.putU64(job.id);
    spec.encode(w);
    append(kRecSubmit, w.take());
    const std::uint64_t id = job.id;
    jobs_[id] = std::move(job);
    return id;
}

Job *
JobQueue::runnable(double now)
{
    for (auto &[id, job] : jobs_) {
        if (job.state == JobState::Pending && job.notBefore <= now)
            return &job;
    }
    return nullptr;
}

void
JobQueue::markStarted(Job &job, std::uint32_t workers)
{
    SnapshotWriter w;
    w.putU64(job.id);
    w.putU32(job.attempts + 1);
    w.putU32(workers);
    append(kRecStart, w.take());
    ++job.attempts;
    job.nextWorkers = workers;
    job.state = JobState::Running;
}

void
JobQueue::markDone(Job &job, const JobResult &result)
{
    SnapshotWriter w;
    w.putU64(job.id);
    result.encode(w);
    append(kRecDone, w.take());
    job.result = result;
    job.state = JobState::Done;
}

void
JobQueue::failAttempt(Job &job, const std::string &reason,
                      std::uint32_t nextWorkers, double now)
{
    if (job.attempts >= retryLimit_) {
        quarantine(job, reason);
        return;
    }
    SnapshotWriter w;
    w.putU64(job.id);
    w.putU32(job.attempts);
    w.putU32(nextWorkers);
    putString(w, reason);
    append(kRecFail, w.take());
    job.lastFailure = reason;
    job.nextWorkers = nextWorkers;
    job.state = JobState::Pending;
    // Doubling, but capped: with double-digit retry budgets (chaotic
    // links burn attempts routinely) an uncapped exponential parks a
    // job for tens of minutes before its quarantine verdict. 10 s is
    // long past any transient worth waiting out.
    job.notBefore =
        now + std::min(kBackoffCapSeconds,
                       backoff_ * std::ldexp(
                                      1.0, static_cast<int>(
                                               job.attempts - 1)));
}

void
JobQueue::quarantine(Job &job, const std::string &reason)
{
    SnapshotWriter w;
    w.putU64(job.id);
    putString(w, reason);
    append(kRecQuarantine, w.take());
    job.lastFailure = reason;
    job.state = JobState::Quarantined;
}

void
JobQueue::recordCheckpoint(Job &job, const CkptManifest &m)
{
    SnapshotWriter w;
    w.putU64(job.id);
    encodeManifest(w, m);
    append(kRecCheckpoint, w.take());
    job.ckpt = m;
    maxEpoch_ = std::max(maxEpoch_, m.epoch);
}

bool
JobQueue::cancel(std::uint64_t id)
{
    Job *job = find(id);
    if (job == nullptr || (job->state != JobState::Pending &&
                           job->state != JobState::Running))
        return false;
    SnapshotWriter w;
    w.putU64(id);
    append(kRecCancel, w.take());
    job->state = JobState::Cancelled;
    return true;
}

Job *
JobQueue::find(std::uint64_t id)
{
    auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : &it->second;
}

bool
JobQueue::allTerminal() const
{
    for (const auto &[id, job] : jobs_) {
        if (job.state == JobState::Pending ||
            job.state == JobState::Running)
            return false;
    }
    return true;
}

// ---------------------------------------------------------------
// Offline journal dump
// ---------------------------------------------------------------

bool
dumpJournal(const std::string &path, std::FILE *out, std::string &err)
{
    JobJournal j;
    if (!j.open(path, err))
        return false;
    return j.replay(
        [&](std::uint8_t type, SnapshotReader &r) {
            switch (type) {
              case kRecSubmit: {
                  const std::uint64_t id = r.getU64();
                  JobSpec spec;
                  JobSpec::decode(r, spec);
                  std::fprintf(out, "SUBMIT job=%llu %s\n",
                               static_cast<unsigned long long>(id),
                               spec.summary().c_str());
                  break;
              }
              case kRecStart: {
                  const std::uint64_t id = r.getU64();
                  const std::uint32_t attempt = r.getU32();
                  const std::uint32_t workers = r.getU32();
                  std::fprintf(out,
                               "START job=%llu attempt=%u workers=%u\n",
                               static_cast<unsigned long long>(id),
                               attempt, workers);
                  break;
              }
              case kRecDone: {
                  const std::uint64_t id = r.getU64();
                  JobResult res;
                  JobResult::decode(r, res);
                  std::fprintf(
                      out,
                      "DONE job=%llu status=%s states=%llu "
                      "transitions=%llu invchecks=%llu\n",
                      static_cast<unsigned long long>(id),
                      verifStatusName(
                          static_cast<VerifStatus>(res.statusCode)),
                      static_cast<unsigned long long>(res.states),
                      static_cast<unsigned long long>(
                          res.transitions),
                      static_cast<unsigned long long>(
                          res.invariantChecks));
                  break;
              }
              case kRecFail: {
                  const std::uint64_t id = r.getU64();
                  const std::uint32_t attempt = r.getU32();
                  const std::uint32_t workers = r.getU32();
                  const std::string reason = getString(r);
                  std::fprintf(out,
                               "FAIL job=%llu attempt=%u "
                               "next-workers=%u reason=%s\n",
                               static_cast<unsigned long long>(id),
                               attempt, workers, reason.c_str());
                  break;
              }
              case kRecCancel:
                  std::fprintf(out, "CANCEL job=%llu\n",
                               static_cast<unsigned long long>(
                                   r.getU64()));
                  break;
              case kRecQuarantine: {
                  const std::uint64_t id = r.getU64();
                  const std::string reason = getString(r);
                  std::fprintf(out, "QUARANTINE job=%llu reason=%s\n",
                               static_cast<unsigned long long>(id),
                               reason.c_str());
                  break;
              }
              case kRecCheckpoint: {
                  const std::uint64_t id = r.getU64();
                  const CkptManifest m = decodeManifest(r);
                  std::fprintf(
                      out,
                      "CKPT job=%llu epoch=%llu parts=%u "
                      "states=%llu transitions=%llu\n",
                      static_cast<unsigned long long>(id),
                      static_cast<unsigned long long>(m.epoch),
                      m.parts,
                      static_cast<unsigned long long>(m.states),
                      static_cast<unsigned long long>(m.transitions));
                  break;
              }
              case kRecSnapshot: {
                  // One SNAP line per folded job. The format is
                  // deliberately distinct from the live records it
                  // replaces ("SNAP job=1 state=DONE", never
                  // "DONE job=1") — the exactly-once recovery checks
                  // count live DONE lines, and a compaction must not
                  // inflate that count.
                  const std::uint64_t nextId = r.getU64();
                  const std::uint64_t maxEpoch = r.getU64();
                  std::vector<Job> jobs;
                  const bool whole = decodeSnapshotJobs(r, jobs);
                  std::fprintf(
                      out,
                      "SNAPSHOT next-id=%llu max-epoch=%llu "
                      "jobs=%zu\n",
                      static_cast<unsigned long long>(nextId),
                      static_cast<unsigned long long>(maxEpoch),
                      jobs.size());
                  for (const Job &job : jobs)
                      std::fprintf(
                          out,
                          "SNAP job=%llu state=%s attempt=%u "
                          "%s\n",
                          static_cast<unsigned long long>(job.id),
                          jobStateName(job.state), job.attempts,
                          job.spec.summary().c_str());
                  if (!whole)
                      std::fprintf(out,
                                   "SNAPSHOT truncated at entry "
                                   "%zu\n",
                                   jobs.size());
                  break;
              }
              default:
                  std::fprintf(out, "UNKNOWN type=%d\n",
                               static_cast<int>(type));
            }
        },
        err);
}

} // namespace neo
