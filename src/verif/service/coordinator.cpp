#include "coordinator.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <list>
#include <set>
#include <sstream>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "sim/exit_codes.hpp"
#include "sim/io_retry.hpp"
#include "sim/logging.hpp"
#include "verif/checkpoint.hpp"
#include "verif/explorer.hpp"
#include "verif/service/job_queue.hpp"
#include "verif/service/wire.hpp"
#include "verif/service/worker.hpp"

namespace neo
{

namespace
{

double
nowSec()
{
    using Clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               Clock::now().time_since_epoch())
        .count();
}

/** Pongs a worker may miss before it counts as hung (multiplied by
 *  the heartbeat interval, floored at a few seconds so fast
 *  heartbeats do not misfire on scheduler hiccups). */
constexpr double kStaleHeartbeats = 8.0;
constexpr double kStaleFloorSeconds = 5.0;
/** Staleness floor while a checkpoint barrier is writing: the worker
 *  services pings during the snapshot *encode*, but the final
 *  write+fsync is one blocking syscall that can legitimately outlast
 *  the run-phase limit on a slow disk — a healthy large job must not
 *  fail every barrier as "unresponsive". */
constexpr double kCkptStaleFloorSeconds = 60.0;
/** Complete pong rounds with a frozen global state count before the
 *  attempt is declared wedged. */
constexpr unsigned kNoProgressRounds = 120;

/** TCP join barrier: heartbeats (floored) a star attempt may spend
 *  waiting for every worker slot's Hello before it fails for retry —
 *  covers pool agents that died between JoinPool and Assign, and
 *  links a chaos proxy severed during the handshake. */
constexpr double kJoinHeartbeats = 10.0;
constexpr double kJoinFloorSeconds = 10.0;
/** Write-stall deadline on a worker link: an out-buffer that drains
 *  zero bytes for this long means the peer stopped reading (half-open
 *  TCP, wedged proxy) even though the connection looks alive. */
constexpr double kLinkStallHeartbeats = 8.0;
constexpr double kLinkStallFloorSeconds = 10.0;
/** Relay backpressure: once an attempt's workers hold this many
 *  undrained relay bytes, the coordinator stops READING from that
 *  attempt's workers — the senders' batch streams stall at their own
 *  out-buffers instead of ballooning here. Bounded memory, no drops. */
constexpr std::size_t kRelayHighWater = 32u << 20;
/** A client that stops reading its responses is dropped rather than
 *  allowed to grow an unbounded out-buffer. */
constexpr std::size_t kClientHighWater = 16u << 20;
constexpr double kClientStallSeconds = 30.0;
/** An accepted TCP connection must identify itself (request, Hello,
 *  or JoinPool) within this long or it is dropped. */
constexpr double kClassifySeconds = 10.0;

/** Attempt nonce: unpredictable enough that a frame from a previous
 *  attempt (delayed in a proxy, or a pre-retry worker still dialing)
 *  cannot authenticate against the successor attempt. */
std::uint64_t
freshNonce()
{
    static std::uint64_t ctr = 0;
    std::uint64_t x = static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    x ^= static_cast<std::uint64_t>(::getpid()) << 32;
    x += ++ctr * 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x != 0 ? x : 1;
}

/** Epochs any non-terminal job may still resume from. A job in retry
 *  backoff is not a running job, but its committed checkpoint must
 *  outlive every other job that runs during the backoff window —
 *  pruning "everything but the current epoch" loses exactly those
 *  files and turns a recoverable kill into a quarantine. */
std::set<std::uint64_t>
liveEpochs(const std::map<std::uint64_t, Job> &jobs)
{
    std::set<std::uint64_t> keep;
    for (const auto &[id, job] : jobs) {
        (void)id;
        if ((job.state == JobState::Pending ||
             job.state == JobState::Running) &&
            job.ckpt.epoch != 0)
            keep.insert(job.ckpt.epoch);
    }
    return keep;
}

/** Delete partition snapshot files whose epoch is not in @p keep. */
void
pruneEpochFiles(const std::string &dir,
                const std::set<std::uint64_t> &keep)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        if (name.rfind("epoch-", 0) != 0 || name.size() < 11 ||
            name.substr(name.size() - 5) != ".ckpt")
            continue;
        const std::uint64_t epoch =
            std::strtoull(name.c_str() + 6, nullptr, 10);
        if (keep.count(epoch) == 0) {
            std::error_code rmEc;
            fs::remove(entry.path(), rmEc);
        }
    }
}

struct PongData
{
    std::uint32_t seq = 0;
    bool paused = false;
    /** Worker is still scanning resume partitions: its store and
     *  queue are partial, so no stability conclusion may rest on this
     *  pong. */
    bool loading = false;
    bool outEmpty = false;
    std::uint64_t queueLen = 0;
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
    std::uint64_t invChecks = 0;
    std::uint64_t sent = 0;
    std::uint64_t recv = 0;

    bool
    operator==(const PongData &o) const
    {
        return paused == o.paused && loading == o.loading &&
               outEmpty == o.outEmpty && queueLen == o.queueLen &&
               states == o.states && transitions == o.transitions &&
               invChecks == o.invChecks && sent == o.sent &&
               recv == o.recv;
    }
};

struct WorkerProc
{
    /** -1 for remote (pool) workers, which have no local process. */
    pid_t pid = -1;
    Channel ctl;
    bool alive = true;
    /** Mesh workers connect at fork; star workers connect at Hello. */
    bool connected = false;
    bool remote = false;
    bool finalSeen = false;
    PongData pong;
    std::uint64_t finStates = 0;
    std::uint64_t finTransitions = 0;
    std::uint64_t finInvChecks = 0;
    double lastPong = 0.0;
};

enum class Phase
{
    Run,       ///< workers exploring
    Quiesce,   ///< barrier: pause sent, draining in-flight states
    CkptWrite, ///< barrier: partition snapshots being written
    Finishing, ///< fixpoint detected, collecting Final reports
};

struct Attempt
{
    bool active = false;
    std::uint64_t jobId = 0;
    unsigned W = 0;
    /** Star topology over TCP (workers dial back and relay through
     *  the coordinator) vs the local socketpair mesh. */
    bool tcp = false;
    std::uint64_t nonce = 0;
    unsigned joined = 0;
    /** Mesh: true at fork. Star: true once every slot said Hello and
     *  the Start barrier went out — pings and the fixpoint detector
     *  only run on a started attempt. */
    bool started = false;
    /** Relay backpressure engaged: POLLIN dropped on this attempt's
     *  worker links until the destinations drain. */
    bool relayPaused = false;
    std::vector<WorkerProc> workers;
    double start = 0.0;
    Phase phase = Phase::Run;
    std::uint32_t pingSeq = 0;
    std::uint32_t lastRound = 0;
    double lastPing = 0.0;
    double lastCkpt = 0.0;
    double lastProgress = 0.0;
    /** Stability detector state (previous complete round). */
    std::vector<PongData> prevRound;
    bool havePrev = false;
    std::uint64_t lastSumStates = ~0ULL;
    unsigned frozenRounds = 0;
    /** Barrier bookkeeping. */
    std::uint64_t ckptEpoch = 0;
    unsigned ckptDone = 0;
    bool ckptOk = true;
    /** Completion bookkeeping. */
    unsigned finals = 0;
    unsigned deaths = 0;
    /** The committed manifest AS OF ATTEMPT START. Worker counters
     *  accumulate from attempt start, so every base+delta sum must
     *  use this frozen copy — job.ckpt advances when a barrier
     *  commits mid-attempt, and summing against the moving value
     *  would double-count the deltas already inside it. */
    CkptManifest base;
};

struct ClientConn
{
    Channel ch;
};

/** Accepted TCP connection whose first frame has not arrived yet: it
 *  could be a client, a worker's Hello, or a pool agent's JoinPool. */
struct PendingConn
{
    Channel ch;
    double since = 0.0;
};

/** A box offering capacity via neoverify --join, parked until an
 *  attempt claims it with Assign. */
struct PoolWorker
{
    Channel ch;
    bool canResume = false;
    bool assigned = false;
};

class Coordinator
{
  public:
    explicit Coordinator(const ServeOptions &opts)
        : opts_(opts),
          queue_(opts.retryLimit, opts.backoffSeconds)
    {
    }

    int run();

  private:
    // --- attempt lifecycle ---
    void startAttempt(Job &job);
    std::vector<int> collectParentFds() const;
    void stopAttemptWorkers(Attempt &a);
    void attemptFailed(Attempt &a, const std::string &reason);
    void finishJob(Attempt &a, const JobResult &result);
    JobResult pongResult(const Attempt &a, std::uint8_t statusCode,
                         double now) const;
    unsigned activeAttempts() const;
    void sweepAttempts();
    void scheduleJobs(double now);

    // --- supervision ---
    void supervise(double now);
    void superviseAttempt(Attempt &a, double now);
    void reapDead(double now);
    void sendPings(Attempt &a, double now);
    void handleRound(Attempt &a, double now);
    void emitProgress(Attempt &a, double now);
    void pulseWaiters(double now);
    void handleWorkerFrame(Attempt &a, unsigned w, MsgType type,
                           const std::vector<std::uint8_t> &body,
                           double now);

    // --- tcp handshakes ---
    void acceptOn(int fd, bool tcp);
    /** Route a pending connection's first frame; @return true when
     *  the entry was consumed (promoted or rejected+closed). */
    bool classifyPending(std::list<PendingConn>::iterator it,
                         double now);
    void attachHello(Channel &&ch,
                     const std::vector<std::uint8_t> &body,
                     double now);
    void sweepConns(double now);

    // --- clients ---
    void handleClientFrame(ClientConn &client, MsgType type,
                           const std::vector<std::uint8_t> &body);
    void notifyWaiters(std::uint64_t jobId);
    std::pair<int, std::string> resultFor(const Job &job) const;
    std::string statusText() const;
    void dropClosedClients(double now);

    /** All client responses are deferred and queued only after the
     *  end-of-iteration journal commit — an acknowledgement must
     *  never outrun the durability of the transition it reports. */
    void reply(ClientConn &c, MsgType type,
               const std::vector<std::uint8_t> &body);
    void sendErr(ClientConn &c, const std::string &msg);
    void sendOk(ClientConn &c, const std::string &msg);
    void flushReplies();

    ServeOptions opts_;
    JobQueue queue_;
    int listenFd_ = -1;
    int tcpListenFd_ = -1;
    std::string tcpBound_;
    std::string advertise_;
    bool draining_ = false;
    std::uint64_t nextEpoch_ = 1;
    std::map<std::uint64_t, Attempt> attempts_;
    std::list<ClientConn> clients_;
    std::list<PendingConn> pending_;
    std::list<PoolWorker> pool_;
    std::vector<std::pair<std::uint64_t, ClientConn *>> waiters_;
    /** Last backoff-phase progress pulse per waited job (jobs with a
     *  live attempt are rate-limited by Attempt::lastProgress). */
    std::map<std::uint64_t, double> waiterPulse_;
    struct PendingReply
    {
        ClientConn *client;
        MsgType type;
        std::vector<std::uint8_t> body;
    };
    std::vector<PendingReply> replies_;
};

// ---------------------------------------------------------------
// Attempt lifecycle
// ---------------------------------------------------------------

std::vector<int>
Coordinator::collectParentFds() const
{
    // Everything a forked worker must NOT inherit open: most
    // critically the journal (a worker must never be able to extend
    // it) and OTHER attempts' worker links — a surviving open copy of
    // a control socket would keep its EOF from ever firing, so a dead
    // coordinator's workers would outlive it.
    std::vector<int> fds;
    if (listenFd_ >= 0)
        fds.push_back(listenFd_);
    if (tcpListenFd_ >= 0)
        fds.push_back(tcpListenFd_);
    if (queue_.journalFd() >= 0)
        fds.push_back(queue_.journalFd());
    for (const auto &c : clients_)
        if (c.ch.fd() >= 0)
            fds.push_back(c.ch.fd());
    for (const auto &p : pending_)
        if (p.ch.fd() >= 0)
            fds.push_back(p.ch.fd());
    for (const auto &p : pool_)
        if (p.ch.fd() >= 0)
            fds.push_back(p.ch.fd());
    for (const auto &[id, a] : attempts_) {
        (void)id;
        for (const auto &w : a.workers)
            if (w.ctl.fd() >= 0)
                fds.push_back(w.ctl.fd());
    }
    return fds;
}

void
Coordinator::startAttempt(Job &job)
{
    unsigned W = job.nextWorkers != 0 ? job.nextWorkers
                 : job.spec.workers != 0
                     ? job.spec.workers
                     : opts_.workers;
    W = std::max(1u, W);

    // Journal-first: the attempt exists durably before any fork, so
    // a coordinator crash from here on replays as a failed attempt.
    queue_.markStarted(job, W);
    queue_.commit();

    Attempt a;
    a.active = true;
    a.jobId = job.id;
    a.W = W;
    a.base = job.ckpt;
    a.workers.resize(W);
    a.tcp = tcpListenFd_ >= 0;
    const double now = nowSec();
    a.start = now;
    a.lastCkpt = now;
    a.lastProgress = now;

    if (a.tcp) {
        // Star topology: every worker — a pool agent's fork on
        // another box or a local fork — dials advertise_ and
        // authenticates with the attempt nonce. Nothing runs until
        // all W slots have joined (Start barrier).
        a.nonce = freshNonce();
        unsigned idx = 0;
        unsigned fromPool = 0;
        for (auto &pw : pool_) {
            if (idx >= W)
                break;
            if (pw.assigned || pw.ch.failed())
                continue;
            // Resume needs the partition files; only agents that
            // declared shared storage qualify.
            if (job.ckpt.epoch != 0 && !pw.canResume)
                continue;
            SnapshotWriter w;
            w.putU64(job.id);
            w.putU64(a.nonce);
            w.putU32(idx);
            w.putU32(W);
            w.putF64(opts_.heartbeatSeconds);
            w.putU64(job.ckpt.epoch);
            w.putU32(job.ckpt.parts);
            w.putU32(job.attempts);
            putString(w, opts_.stateDir);
            job.spec.encode(w);
            pw.ch.queueFrame(MsgType::Assign, w.take());
            pw.assigned = true;
            a.workers[idx].remote = true;
            a.workers[idx].lastPong = now;
            ++idx;
            ++fromPool;
        }
        const std::vector<int> parentFds = collectParentFds();
        for (; idx < W; ++idx) {
            const pid_t pid = ::fork();
            if (pid < 0)
                neo_fatal("fork: ", std::strerror(errno));
            if (pid == 0) {
                for (int fd : parentFds)
                    ::close(fd);
                WorkerConfig cfg;
                cfg.index = idx;
                cfg.count = W;
                cfg.spec = job.spec;
                cfg.partDir = opts_.stateDir;
                cfg.resumeEpoch = job.ckpt.epoch;
                cfg.resumeParts = job.ckpt.parts;
                cfg.attempt = job.attempts;
                cfg.coordAddr = advertise_;
                cfg.jobId = job.id;
                cfg.nonce = a.nonce;
                cfg.heartbeatSeconds = opts_.heartbeatSeconds;
                runWorkerProcess(cfg, WorkerEndpoints());
            }
            a.workers[idx].pid = pid;
            a.workers[idx].lastPong = now;
        }
        neo_inform("job ", job.id, " attempt ", job.attempts, ": ",
                   W, " worker", W == 1 ? "" : "s", " over TCP (",
                   fromPool, " from the pool)",
                   job.ckpt.epoch != 0
                       ? ", resuming checkpoint epoch " +
                             std::to_string(job.ckpt.epoch)
                       : std::string(),
                   ": ", job.spec.summary());
        attempts_[job.id] = std::move(a);
        return;
    }

    std::vector<std::array<int, 2>> ctl(W);
    // peerFd[i][j]: worker i's end of the i<->j mesh link.
    std::vector<std::vector<int>> peerFd(
        W, std::vector<int>(W, -1));
    for (unsigned i = 0; i < W; ++i) {
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ctl[i].data()) != 0)
            neo_fatal("socketpair: ", std::strerror(errno));
    }
    for (unsigned i = 0; i < W; ++i) {
        for (unsigned j = i + 1; j < W; ++j) {
            int sv[2];
            if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
                neo_fatal("socketpair: ", std::strerror(errno));
            peerFd[i][j] = sv[0];
            peerFd[j][i] = sv[1];
        }
    }

    const std::vector<int> parentFds = collectParentFds();
    for (unsigned i = 0; i < W; ++i) {
        const pid_t pid = ::fork();
        if (pid < 0)
            neo_fatal("fork: ", std::strerror(errno));
        if (pid == 0) {
            for (int fd : parentFds)
                ::close(fd);
            for (unsigned k = 0; k < W; ++k) {
                ::close(ctl[k][0]);
                if (k != i)
                    ::close(ctl[k][1]);
                if (k != i)
                    for (int fd : peerFd[k])
                        if (fd >= 0)
                            ::close(fd);
            }
            WorkerConfig cfg;
            cfg.index = i;
            cfg.count = W;
            cfg.spec = job.spec;
            cfg.partDir = opts_.stateDir;
            cfg.resumeEpoch = job.ckpt.epoch;
            cfg.resumeParts = job.ckpt.parts;
            cfg.attempt = job.attempts;
            WorkerEndpoints eps;
            eps.control = ctl[i][1];
            eps.peers = peerFd[i];
            runWorkerProcess(cfg, eps); // never returns
        }
        a.workers[i].pid = pid;
    }

    // Parent: every child-side fd now belongs to the children.
    for (unsigned i = 0; i < W; ++i) {
        ::close(ctl[i][1]);
        for (int fd : peerFd[i])
            if (fd >= 0)
                ::close(fd);
        setNonBlocking(ctl[i][0]);
        a.workers[i].ctl = Channel(ctl[i][0]);
        a.workers[i].connected = true;
        a.workers[i].lastPong = now; // spawn grace
    }
    a.started = true;
    a.joined = W;
    a.lastPing = now - opts_.heartbeatSeconds; // ping at once

    neo_inform("job ", job.id, " attempt ", job.attempts, ": ", W,
               " worker", W == 1 ? "" : "s",
               job.ckpt.epoch != 0
                   ? " (resuming checkpoint epoch " +
                         std::to_string(job.ckpt.epoch) + ")"
                   : std::string(),
               ": ", job.spec.summary());
    attempts_[job.id] = std::move(a);
}

void
Coordinator::stopAttemptWorkers(Attempt &a)
{
    for (auto &w : a.workers) {
        if (w.pid > 0 && w.alive) {
            ::kill(w.pid, SIGKILL);
            int st = 0;
            pid_t rc;
            do {
                rc = ::waitpid(w.pid, &st, 0);
            } while (rc < 0 && errno == EINTR);
        }
        if (w.remote && w.connected && !w.ctl.failed()) {
            // Best-effort Stop; the close right after guarantees the
            // remote worker exits on EOF even if this never lands.
            w.ctl.queueFrame(MsgType::Stop, {});
            w.ctl.flush();
        }
        w.alive = false;
        w.connected = false;
        w.ctl.close();
    }
}

void
Coordinator::attemptFailed(Attempt &a, const std::string &reason)
{
    const unsigned deaths = a.deaths;
    stopAttemptWorkers(a);
    Job *job = queue_.find(a.jobId);
    a.active = false;
    if (job == nullptr)
        return;
    // Reshard to survivors: the next attempt redeal's the lost
    // worker's partition from the last committed epoch. Pure link
    // failures (deaths == 0) keep the worker count — the workers
    // were fine, the network was not.
    const std::uint32_t nextW =
        std::max(1u, a.W - std::min(a.W - 1, deaths));
    neo_warn("job ", job->id, " attempt ", job->attempts,
             " failed: ", reason, " (next attempt: ", nextW,
             " workers)");
    queue_.failAttempt(*job, reason, nextW, nowSec());
    queue_.commit();
    if (job->state == JobState::Quarantined)
        notifyWaiters(job->id);
}

JobResult
Coordinator::pongResult(const Attempt &a, std::uint8_t statusCode,
                        double now) const
{
    // Best-effort counters from the latest pongs (exact at a
    // quiesced/stable round; approximate mid-flight, which only the
    // non-Verified verdicts use).
    JobResult res;
    res.statusCode = statusCode;
    for (const auto &w : a.workers) {
        res.states += w.pong.states;
        res.transitions += w.pong.transitions;
        res.invariantChecks += w.pong.invChecks;
    }
    res.transitions += a.base.transitions;
    res.invariantChecks += a.base.invariantChecks;
    res.seconds = a.base.seconds + (now - a.start);
    return res;
}

void
Coordinator::finishJob(Attempt &a, const JobResult &result)
{
    Job *job = queue_.find(a.jobId);
    a.active = false;
    if (job == nullptr)
        return;
    queue_.markDone(*job, result);
    // The DONE record must be durable before the notification leaves
    // and before the checkpoint files stop existing.
    queue_.commit();
    pruneEpochFiles(opts_.stateDir, liveEpochs(queue_.jobs()));
    neo_inform("job ", job->id, " done: ",
               verifStatusName(
                   static_cast<VerifStatus>(result.statusCode)),
               " states=", result.states,
               " transitions=", result.transitions);
    notifyWaiters(job->id);
}

unsigned
Coordinator::activeAttempts() const
{
    unsigned n = 0;
    for (const auto &[id, a] : attempts_) {
        (void)id;
        n += a.active ? 1 : 0;
    }
    return n;
}

void
Coordinator::sweepAttempts()
{
    for (auto it = attempts_.begin(); it != attempts_.end();) {
        if (!it->second.active)
            it = attempts_.erase(it);
        else
            ++it;
    }
}

void
Coordinator::scheduleJobs(double now)
{
    // Admission control: fill the concurrency budget FIFO. A job that
    // keeps crash-looping sits in backoff (and eventually quarantine)
    // without consuming a slot, so it cannot starve its neighbours.
    unsigned active = activeAttempts();
    while (active < std::max(1u, opts_.maxJobs)) {
        Job *job = queue_.runnable(now);
        if (job == nullptr)
            return;
        startAttempt(*job);
        ++active;
    }
}

// ---------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------

void
Coordinator::reapDead(double now)
{
    for (;;) {
        int st = 0;
        const pid_t pid = ::waitpid(-1, &st, WNOHANG);
        if (pid <= 0)
            return;
        Attempt *owner = nullptr;
        unsigned widx = 0;
        for (auto &[id, a] : attempts_) {
            (void)id;
            if (!a.active)
                continue;
            for (unsigned i = 0; i < a.workers.size(); ++i) {
                if (a.workers[i].alive && a.workers[i].pid == pid) {
                    owner = &a;
                    widx = i;
                    break;
                }
            }
            if (owner != nullptr)
                break;
        }
        if (owner == nullptr)
            continue; // a failed attempt's child, already judged
        Attempt &a = *owner;
        WorkerProc &w = a.workers[widx];
        w.alive = false;
        // The socket may still hold a Final or Violation the worker
        // flushed right before exiting; drain it before judging the
        // death.
        w.ctl.readSome();
        MsgType type;
        std::vector<std::uint8_t> body;
        while (a.active && w.ctl.next(type, body))
            handleWorkerFrame(a, widx, type, body, now);
        if (!a.active)
            continue;
        if (a.phase == Phase::Finishing && w.finalSeen)
            continue; // expected exit after Final
        // Star links add a relay hop (and tests add a chaos proxy),
        // so a finisher's exit can be reaped while its Final is
        // still in flight on the wire. A clean exit during
        // Finishing with a healthy link defers judgment: the worker
        // becomes pid-less but stays alive/polled — like a remote
        // one — so either the Final lands (expected completion) or
        // the link's EOF/CRC latch or heartbeat staleness fails the
        // attempt anyway. Never a verdict invented from a missing
        // Final.
        if (a.phase == Phase::Finishing && WIFEXITED(st) &&
            WEXITSTATUS(st) == 0 && !w.ctl.failed()) {
            w.alive = true;
            w.pid = -1;
            continue;
        }
        ++a.deaths;
        std::ostringstream os;
        os << "worker " << widx << "/" << a.W;
        if (WIFSIGNALED(st))
            os << " killed by signal " << WTERMSIG(st);
        else
            os << " exited with status " << WEXITSTATUS(st);
        attemptFailed(a, os.str());
    }
}

void
Coordinator::sendPings(Attempt &a, double now)
{
    ++a.pingSeq;
    a.lastPing = now;
    const bool pause = a.phase == Phase::Quiesce ||
                       a.phase == Phase::CkptWrite;
    SnapshotWriter w;
    w.putU32(a.pingSeq);
    w.putU8(pause ? 1 : 0);
    const std::vector<std::uint8_t> body = w.take();
    for (auto &wp : a.workers)
        if (wp.alive && wp.connected)
            wp.ctl.queueFrame(MsgType::Ping, body);
}

void
Coordinator::emitProgress(Attempt &a, double now)
{
    if (opts_.progressEverySeconds <= 0.0 ||
        now - a.lastProgress < opts_.progressEverySeconds)
        return;
    a.lastProgress = now;
    std::uint64_t states = 0, transitions = 0;
    for (const auto &w : a.workers) {
        states += w.pong.states;
        transitions += w.pong.transitions;
    }
    transitions += a.base.transitions;
    SnapshotWriter w;
    w.putU64(a.jobId);
    w.putU8(static_cast<std::uint8_t>(a.phase));
    w.putU64(states);
    w.putU64(transitions);
    w.putF64(a.base.seconds + (now - a.start));
    const std::vector<std::uint8_t> body = w.take();
    for (auto &[id, c] : waiters_)
        if (id == a.jobId)
            reply(*c, MsgType::RspProgress, body);
}

void
Coordinator::pulseWaiters(double now)
{
    // The progress stream is the waiter's liveness signal: a client
    // read deadline must never expire against a healthy queue. Ping
    // rounds only tick for live attempts, so this runs every poll
    // iteration and covers the two starvation windows rounds miss —
    // a job parked in exponential retry backoff (no attempt at all;
    // the gap doubles past any sane --net-timeout) and an attempt
    // whose rounds stall on a dying worker until supervision fires.
    if (opts_.progressEverySeconds <= 0.0 || waiters_.empty())
        return;
    for (auto &[id, c] : waiters_) {
        (void)c;
        Job *job = queue_.find(id);
        if (job == nullptr || (job->state != JobState::Pending &&
                               job->state != JobState::Running)) {
            waiterPulse_.erase(id);
            continue;
        }
        Attempt *live = nullptr;
        for (auto &[aid, a] : attempts_) {
            (void)aid;
            if (a.active && a.jobId == id) {
                live = &a;
                break;
            }
        }
        if (live != nullptr) {
            emitProgress(*live, now); // lastProgress rate-limits
            continue;
        }
        double &at = waiterPulse_[id];
        if (now - at < opts_.progressEverySeconds)
            continue;
        at = now;
        // Between attempts: the last committed checkpoint's counters
        // under the synthetic backoff phase.
        SnapshotWriter w;
        w.putU64(id);
        w.putU8(kProgressPhaseBackoff);
        w.putU64(job->ckpt.states);
        w.putU64(job->ckpt.transitions);
        w.putF64(job->ckpt.seconds);
        const std::vector<std::uint8_t> body = w.take();
        for (auto &[wid, wc] : waiters_)
            if (wid == id)
                reply(*wc, MsgType::RspProgress, body);
    }
}

void
Coordinator::handleRound(Attempt &a, double now)
{
    a.lastRound = a.pingSeq;

    std::vector<PongData> round;
    round.reserve(a.workers.size());
    bool drained = true, allQuiesced = true, anyLoading = false;
    std::uint64_t sumStates = 0, sumSent = 0, sumRecv = 0;
    for (const auto &w : a.workers) {
        round.push_back(w.pong);
        drained &= w.pong.outEmpty && w.pong.queueLen == 0;
        allQuiesced &= w.pong.paused && w.pong.outEmpty;
        anyLoading |= w.pong.loading;
        sumStates += w.pong.states;
        sumSent += w.pong.sent;
        sumRecv += w.pong.recv;
    }
    // In star mode the coordinator's relay is part of the network:
    // bytes queued toward a destination worker are in flight even
    // though both endpoints look drained. Σsent==Σrecv already
    // refuses the fixpoint while any batch is unreceived, so the
    // relay cannot fake stability — this only restates the rule.
    const bool sumsEq = sumSent == sumRecv;
    const bool same = a.havePrev && round == a.prevRound;
    a.prevRound = std::move(round);
    a.havePrev = true;

    if (sumStates != a.lastSumStates) {
        a.lastSumStates = sumStates;
        a.frozenRounds = 0;
    } else {
        ++a.frozenRounds;
    }

    emitProgress(a, now);

    if ((a.phase == Phase::Run || a.phase == Phase::Quiesce) &&
        !anyLoading && drained && sumsEq && same) {
        // Two identical complete rounds with every queue and buffer
        // empty and global sent == received: nothing is running and
        // nothing is in flight — the distributed fixpoint. The
        // paused flag deliberately does not matter: a barrier's
        // pause cannot conjure work into empty queues, and requiring
        // Run-phase rounds starves detection forever when the
        // checkpoint cadence is at most two heartbeats (the barrier
        // kick reclaims the phase before a second unpaused round can
        // complete — the attempt then checkpoints an already-final
        // store on a loop until the no-progress watchdog shoots it).
        // The loading flag DOES matter: a worker scanning resume
        // partitions pongs a frozen partial store, and declaring the
        // fixpoint over it would finish the job with dropped states
        // on exactly the crash-recovery path.
        a.phase = Phase::Finishing;
        for (auto &w : a.workers)
            if (w.alive && w.connected)
                w.ctl.queueFrame(MsgType::Finish, {});
        return;
    }
    if (a.phase == Phase::Quiesce && !anyLoading && allQuiesced &&
        sumsEq && same) {
        a.ckptEpoch = nextEpoch_++;
        a.ckptDone = 0;
        a.ckptOk = true;
        SnapshotWriter w;
        w.putU64(a.ckptEpoch);
        const std::vector<std::uint8_t> body = w.take();
        for (auto &wp : a.workers) {
            if (!wp.alive || !wp.connected)
                continue;
            wp.ctl.queueFrame(MsgType::CkptWrite, body);
            // The staleness clock restarts at the barrier: the write
            // phase has its own (longer) allowance, and it should
            // measure from the barrier kick, not the last pre-
            // barrier pong.
            wp.lastPong = now;
        }
        a.phase = Phase::CkptWrite;
        return;
    }
    if (a.phase != Phase::Finishing &&
        a.frozenRounds > kNoProgressRounds) {
        attemptFailed(a,
                      "no progress: global state count frozen for " +
                          std::to_string(a.frozenRounds) + " rounds");
    }
}

void
Coordinator::handleWorkerFrame(Attempt &a, unsigned widx,
                               MsgType type,
                               const std::vector<std::uint8_t> &body,
                               double now)
{
    WorkerProc &w = a.workers[widx];
    SnapshotReader r(body);
    switch (type) {
      case MsgType::StatesTo: {
          // Star relay: forward the batch to its destination shard
          // verbatim (the body already carries the dest index the
          // receiver re-checks). The only way the batch does not
          // arrive is a link failure, which fails the whole attempt;
          // it can never be silently dropped, so the per-connection
          // Σsent==Σrecv accounting stays exact.
          const std::uint32_t dest = r.getU32();
          if (!r.ok() || dest >= a.W || !a.workers[dest].alive ||
              !a.workers[dest].connected ||
              a.workers[dest].ctl.failed()) {
              attemptFailed(a, "state batch routed to worker " +
                                   std::to_string(dest) +
                                   " which is gone");
              return;
          }
          a.workers[dest].ctl.queueFrame(MsgType::StatesTo, body);
          break;
      }
      case MsgType::Pong: {
          PongData p;
          p.seq = r.getU32();
          p.paused = r.getU8() != 0;
          p.loading = r.getU8() != 0;
          p.outEmpty = r.getU8() != 0;
          p.queueLen = r.getU64();
          p.states = r.getU64();
          p.transitions = r.getU64();
          p.invChecks = r.getU64();
          p.sent = r.getU64();
          p.recv = r.getU64();
          if (!r.ok())
              return;
          w.pong = p;
          w.lastPong = now;
          // Complete round: every worker answered the latest ping.
          if (a.phase == Phase::Run || a.phase == Phase::Quiesce) {
              bool complete = a.pingSeq != a.lastRound;
              for (const auto &wp : a.workers)
                  complete &= wp.alive && wp.pong.seq == a.pingSeq;
              if (complete)
                  handleRound(a, now);
          }
          break;
      }
      case MsgType::CkptDone: {
          const std::uint64_t epoch = r.getU64();
          const bool ok = r.getU8() != 0;
          w.lastPong = now; // the snapshot write proves liveness
          if (a.phase != Phase::CkptWrite || epoch != a.ckptEpoch)
              return;
          a.ckptOk &= ok;
          if (++a.ckptDone < a.W)
              return;
          Job *job = queue_.find(a.jobId);
          if (a.ckptOk && job != nullptr) {
              // All partitions durable: commit the consistent cut.
              // The pong counters are from the quiesced stable
              // round, so the manifest is exact.
              CkptManifest m;
              m.epoch = a.ckptEpoch;
              m.parts = a.W;
              for (const auto &wp : a.workers) {
                  m.states += wp.pong.states;
                  m.transitions += wp.pong.transitions;
                  m.invariantChecks += wp.pong.invChecks;
              }
              m.transitions += a.base.transitions;
              m.invariantChecks += a.base.invariantChecks;
              m.seconds = a.base.seconds + (now - a.start);
              queue_.recordCheckpoint(*job, m);
              // Durable before the files the OLD manifest named can
              // be pruned away.
              queue_.commit();
              pruneEpochFiles(opts_.stateDir,
                              liveEpochs(queue_.jobs()));
          } else {
              neo_warn("checkpoint epoch ", a.ckptEpoch,
                       " abandoned (a partition write failed)");
          }
          a.lastCkpt = now;
          a.phase = Phase::Run; // next ping unpauses
          break;
      }
      case MsgType::Final: {
          w.finalSeen = true;
          w.finStates = r.getU64();
          w.finTransitions = r.getU64();
          w.finInvChecks = r.getU64();
          if (++a.finals < a.W)
              return;
          JobResult res;
          res.statusCode =
              static_cast<std::uint8_t>(VerifStatus::Verified);
          for (const auto &wp : a.workers) {
              res.states += wp.finStates;
              res.transitions += wp.finTransitions;
              res.invariantChecks += wp.finInvChecks;
          }
          res.transitions += a.base.transitions;
          res.invariantChecks += a.base.invariantChecks;
          res.seconds = a.base.seconds + (now - a.start);
          stopAttemptWorkers(a);
          finishJob(a, res);
          break;
      }
      case MsgType::Violation: {
          const std::string invariant = getString(r);
          const std::string bad = getString(r);
          // The reporter's exact counters: fold them into its pong
          // slot so the verdict is right even when the violation
          // beat the first heartbeat round (peers' counters stay
          // best-effort — the verdict's counts are advisory for
          // anything but Verified).
          w.pong.states = r.getU64();
          w.pong.transitions = r.getU64();
          w.pong.invChecks = r.getU64();
          Job *job = queue_.find(a.jobId);
          stopAttemptWorkers(a);
          if (job == nullptr) {
              a.active = false;
              return;
          }
          JobResult res = pongResult(
              a,
              static_cast<std::uint8_t>(
                  VerifStatus::InvariantViolated),
              now);
          res.violatedInvariant = invariant;
          res.detail = bad;
          finishJob(a, res);
          break;
      }
      default:
          break;
    }
}

void
Coordinator::superviseAttempt(Attempt &a, double now)
{
    Job *job = queue_.find(a.jobId);
    if (job == nullptr) {
        stopAttemptWorkers(a);
        a.active = false;
        return;
    }

    // Link supervision runs before liveness: a failed channel IS the
    // verdict for remote workers (there is no pid to reap), and for
    // local ones it beats waiting out the staleness clock.
    for (unsigned i = 0; a.active && i < a.workers.size(); ++i) {
        WorkerProc &w = a.workers[i];
        if (!w.alive || !w.connected)
            continue;
        if (w.ctl.failed()) {
            if (a.phase == Phase::Finishing && w.finalSeen) {
                w.connected = false; // expected close after Final
                w.ctl.close();
                continue;
            }
            attemptFailed(a, "worker " + std::to_string(i) +
                                 " link lost");
            return;
        }
        if (w.ctl.writeStalled(
                now,
                std::max(kLinkStallFloorSeconds,
                         kLinkStallHeartbeats *
                             opts_.heartbeatSeconds))) {
            attemptFailed(a, "worker " + std::to_string(i) +
                                 " stopped reading (write-stalled "
                                 "link)");
            return;
        }
    }
    if (!a.active)
        return;

    if (a.tcp && !a.started) {
        // Join barrier: no pings, no fixpoint — just a deadline.
        if (now - a.start > std::max(kJoinFloorSeconds,
                                     kJoinHeartbeats *
                                         opts_.heartbeatSeconds))
            attemptFailed(a, "only " + std::to_string(a.joined) +
                                 "/" + std::to_string(a.W) +
                                 " workers joined before the "
                                 "deadline");
        return;
    }

    if (now - a.lastPing >= opts_.heartbeatSeconds)
        sendPings(a, now);

    double staleLimit =
        std::max(kStaleFloorSeconds,
                 kStaleHeartbeats * opts_.heartbeatSeconds);
    if (a.phase == Phase::CkptWrite)
        staleLimit = std::max(staleLimit, kCkptStaleFloorSeconds);
    for (unsigned i = 0; i < a.workers.size(); ++i) {
        const WorkerProc &w = a.workers[i];
        if (w.alive && now - w.lastPong > staleLimit) {
            attemptFailed(a, "worker " + std::to_string(i) +
                                 " unresponsive for " +
                                 std::to_string(staleLimit) + "s");
            return;
        }
    }

    if (opts_.jobTimeoutSeconds > 0.0 &&
        now - a.start > opts_.jobTimeoutSeconds) {
        attemptFailed(a, "attempt exceeded the job timeout");
        return;
    }

    // Bound enforcement mirrors the sequential CLI: exceeding a bound
    // is a terminal verdict, not a retryable failure.
    if (a.havePrev) {
        std::uint64_t sumStates = 0;
        for (const auto &w : a.workers)
            sumStates += w.pong.states;
        const double elapsed = a.base.seconds + (now - a.start);
        if (sumStates >= job->spec.maxStates ||
            (job->spec.maxSeconds > 0.0 &&
             elapsed > job->spec.maxSeconds)) {
            stopAttemptWorkers(a);
            JobResult res = pongResult(
                a,
                static_cast<std::uint8_t>(
                    VerifStatus::LimitExceeded),
                now);
            res.detail = sumStates >= job->spec.maxStates
                             ? "state bound exceeded"
                             : "time bound exceeded";
            finishJob(a, res);
            return;
        }
    }

    if (a.phase == Phase::Run &&
        opts_.checkpointEverySeconds > 0.0 &&
        now - a.lastCkpt >= opts_.checkpointEverySeconds)
        a.phase = Phase::Quiesce; // next pings carry pause
}

void
Coordinator::supervise(double now)
{
    reapDead(now);
    for (auto &[id, a] : attempts_) {
        (void)id;
        if (a.active)
            superviseAttempt(a, now);
    }
}

// ---------------------------------------------------------------
// TCP handshakes
// ---------------------------------------------------------------

void
Coordinator::acceptOn(int fd, bool tcp)
{
    for (;;) {
        const int conn = ::accept(fd, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN (or a transient error): back to poll
        }
        setNonBlocking(conn);
        if (!tcp) {
            // Unix connections are always clients.
            clients_.emplace_back();
            clients_.back().ch = Channel(conn);
        } else {
            // A TCP connection could be a client, a worker saying
            // Hello, or a pool agent — its first frame decides.
            pending_.emplace_back();
            pending_.back().ch = Channel(conn);
            pending_.back().since = nowSec();
        }
    }
}

void
Coordinator::attachHello(Channel &&ch,
                         const std::vector<std::uint8_t> &body,
                         double now)
{
    SnapshotReader r(body);
    const std::uint64_t jobId = r.getU64();
    const std::uint64_t nonce = r.getU64();
    const std::uint32_t index = r.getU32();
    auto it = r.ok() ? attempts_.find(jobId) : attempts_.end();
    if (it == attempts_.end() || !it->second.active ||
        !it->second.tcp || it->second.nonce != nonce ||
        index >= it->second.W ||
        it->second.workers[index].connected ||
        !it->second.workers[index].alive) {
        // Wrong nonce (a stale attempt's worker), duplicate slot, or
        // an attempt that no longer exists: refuse by closing. The
        // dialer exits on the EOF.
        ch.close();
        return;
    }
    Attempt &a = it->second;
    WorkerProc &w = a.workers[index];
    w.ctl = std::move(ch);
    w.connected = true;
    w.lastPong = now;
    if (++a.joined == a.W) {
        a.started = true;
        for (auto &wp : a.workers) {
            wp.ctl.queueFrame(MsgType::Start, {});
            wp.lastPong = now;
        }
        a.lastPing = now - opts_.heartbeatSeconds; // ping at once
        neo_inform("job ", a.jobId, ": all ", a.W,
                   " workers joined, releasing the start barrier");
    }
    // Frames that rode in behind the Hello.
    MsgType type;
    std::vector<std::uint8_t> b;
    while (it->second.active && w.ctl.next(type, b))
        handleWorkerFrame(it->second, index, type, b, now);
}

bool
Coordinator::classifyPending(std::list<PendingConn>::iterator it,
                             double now)
{
    PendingConn &pc = *it;
    MsgType type;
    std::vector<std::uint8_t> body;
    if (!pc.ch.next(type, body)) {
        if (pc.ch.failed() || now - pc.since > kClassifySeconds) {
            pending_.erase(it);
            return true;
        }
        return false;
    }
    switch (type) {
      case MsgType::Hello:
          attachHello(std::move(pc.ch), body, now);
          pending_.erase(it);
          return true;
      case MsgType::JoinPool: {
          SnapshotReader r(body);
          const bool canResume = r.getU8() != 0;
          pool_.emplace_back();
          pool_.back().ch = std::move(pc.ch);
          pool_.back().canResume = r.ok() && canResume;
          pending_.erase(it);
          neo_inform("pool worker joined (", pool_.size(),
                     " idle in the pool)");
          return true;
      }
      case MsgType::ReqSubmit:
      case MsgType::ReqStatus:
      case MsgType::ReqCancel:
      case MsgType::ReqDrain:
      case MsgType::ReqWait: {
          clients_.emplace_back();
          ClientConn &c = clients_.back();
          c.ch = std::move(pc.ch);
          pending_.erase(it);
          handleClientFrame(c, type, body);
          while (!c.ch.failed() && c.ch.next(type, body))
              handleClientFrame(c, type, body);
          return true;
      }
      default:
          // A frame that identifies as none of the three roles is a
          // protocol error: drop the connection.
          pending_.erase(it);
          return true;
    }
}

void
Coordinator::sweepConns(double now)
{
    for (auto it = pending_.begin(); it != pending_.end();) {
        auto cur = it++;
        if (cur->ch.failed() || now - cur->since > kClassifySeconds)
            pending_.erase(cur);
    }
    for (auto it = pool_.begin(); it != pool_.end();) {
        auto cur = it++;
        MsgType type;
        std::vector<std::uint8_t> body;
        while (cur->ch.next(type, body)) {
            // Idle pool agents have nothing to say; drain and ignore.
        }
        if (cur->ch.failed() ||
            (cur->assigned && !cur->ch.wantsWrite()))
            pool_.erase(cur);
    }
}

// ---------------------------------------------------------------
// Clients
// ---------------------------------------------------------------

void
Coordinator::reply(ClientConn &c, MsgType type,
                   const std::vector<std::uint8_t> &body)
{
    replies_.push_back({&c, type, body});
}

void
Coordinator::flushReplies()
{
    for (auto &pr : replies_)
        pr.client->ch.queueFrame(pr.type, pr.body);
    replies_.clear();
}

void
Coordinator::sendErr(ClientConn &c, const std::string &msg)
{
    SnapshotWriter w;
    putString(w, msg);
    reply(c, MsgType::RspErr, w.take());
}

void
Coordinator::sendOk(ClientConn &c, const std::string &msg)
{
    SnapshotWriter w;
    putString(w, msg);
    reply(c, MsgType::RspOk, w.take());
}

void
Coordinator::notifyWaiters(std::uint64_t jobId)
{
    const Job *job = queue_.find(jobId);
    if (job == nullptr)
        return;
    const auto [code, text] = resultFor(*job);
    for (auto it = waiters_.begin(); it != waiters_.end();) {
        if (it->first != jobId) {
            ++it;
            continue;
        }
        SnapshotWriter w;
        w.putU8(static_cast<std::uint8_t>(code));
        putString(w, text);
        reply(*it->second, MsgType::RspResult, w.take());
        it = waiters_.erase(it);
    }
}

std::pair<int, std::string>
Coordinator::resultFor(const Job &job) const
{
    std::ostringstream os;
    os << "job " << job.id << " ";
    switch (job.state) {
      case JobState::Done: {
          const auto status =
              static_cast<VerifStatus>(job.result.statusCode);
          os << verifStatusName(status) << ": states="
             << job.result.states
             << " transitions=" << job.result.transitions
             << " invchecks=" << job.result.invariantChecks
             << " seconds=" << job.result.seconds;
          if (!job.result.violatedInvariant.empty())
              os << " violated=" << job.result.violatedInvariant;
          if (!job.result.detail.empty())
              os << " (" << job.result.detail << ")";
          return {status == VerifStatus::Verified ? kExitClean
                                                  : kExitViolation,
                  os.str()};
      }
      case JobState::Quarantined:
          os << "QUARANTINED: " << job.lastFailure;
          return {kExitQuarantined, os.str()};
      case JobState::Cancelled:
          os << "CANCELLED";
          return {kExitInterrupted, os.str()};
      default:
          os << jobStateName(job.state);
          return {kExitViolation, os.str()};
    }
}

std::string
Coordinator::statusText() const
{
    std::ostringstream os;
    os << "serving " << opts_.sockPath;
    if (tcpListenFd_ >= 0)
        os << " listen=" << tcpBound_;
    os << " workers=" << opts_.workers
       << " max-jobs=" << std::max(1u, opts_.maxJobs)
       << " jobs=" << queue_.jobs().size()
       << " pool=" << pool_.size()
       << (draining_ ? " draining" : "") << "\n";
    for (const auto &[id, job] : queue_.jobs()) {
        os << "job " << id << " " << jobStateName(job.state)
           << " attempt=" << job.attempts << "/"
           << queue_.retryLimit();
        const auto ait = attempts_.find(id);
        if (job.state == JobState::Running &&
            ait != attempts_.end() && ait->second.active) {
            const Attempt &a = ait->second;
            os << " workers=" << a.W << " pids=";
            for (unsigned i = 0; i < a.workers.size(); ++i)
                os << (i != 0 ? "," : "") << a.workers[i].pid;
            if (a.tcp && !a.started)
                os << " joined=" << a.joined << "/" << a.W;
            std::uint64_t states = 0;
            for (const auto &w : a.workers)
                states += w.pong.states;
            os << " states=" << states;
        }
        if (job.state == JobState::Done)
            os << " status="
               << verifStatusName(
                      static_cast<VerifStatus>(
                          job.result.statusCode))
               << " states=" << job.result.states
               << " transitions=" << job.result.transitions
               << " invchecks=" << job.result.invariantChecks;
        if (job.ckpt.epoch != 0 && job.state != JobState::Done)
            os << " ckpt-epoch=" << job.ckpt.epoch;
        if (!job.lastFailure.empty())
            os << " last-failure=\"" << job.lastFailure << "\"";
        os << " :: " << job.spec.summary() << "\n";
    }
    return os.str();
}

void
Coordinator::handleClientFrame(ClientConn &client, MsgType type,
                               const std::vector<std::uint8_t> &body)
{
    SnapshotReader r(body);
    switch (type) {
      case MsgType::ReqSubmit: {
          if (draining_) {
              sendErr(client, "coordinator is draining");
              return;
          }
          JobSpec spec;
          if (!JobSpec::decode(r, spec)) {
              sendErr(client, "malformed job spec");
              return;
          }
          // Reject unbuildable specs at the door rather than letting
          // every attempt die in the worker.
          ModelShape shape;
          std::string err;
          buildJobModel(spec, shape, err);
          if (!err.empty()) {
              sendErr(client, err);
              return;
          }
          // The append is deferred into the iteration's group
          // commit; so is this acknowledgement, which therefore
          // cannot reach the client before the record is durable.
          const std::uint64_t id = queue_.submit(spec);
          SnapshotWriter w;
          w.putU64(id);
          reply(client, MsgType::RspSubmit, w.take());
          neo_inform("job ", id, " submitted: ", spec.summary());
          break;
      }
      case MsgType::ReqStatus: {
          SnapshotWriter w;
          putString(w, statusText());
          reply(client, MsgType::RspStatus, w.take());
          break;
      }
      case MsgType::ReqCancel: {
          const std::uint64_t id = r.getU64();
          Job *job = queue_.find(id);
          if (job == nullptr) {
              sendErr(client, "unknown job");
              return;
          }
          if (!queue_.cancel(id)) {
              sendErr(client, "job is not cancellable");
              return;
          }
          // Journal-first ordering: the CANCEL record is durable
          // before the workers die, so a crash right here replays as
          // cancelled, not as a retryable failure.
          queue_.commit();
          const auto ait = attempts_.find(id);
          if (ait != attempts_.end() && ait->second.active) {
              stopAttemptWorkers(ait->second);
              ait->second.active = false;
              pruneEpochFiles(opts_.stateDir,
                              liveEpochs(queue_.jobs()));
          }
          notifyWaiters(id);
          sendOk(client, "cancelled");
          break;
      }
      case MsgType::ReqDrain: {
          draining_ = true;
          sendOk(client, "draining");
          break;
      }
      case MsgType::ReqWait: {
          const std::uint64_t id = r.getU64();
          Job *job = queue_.find(id);
          if (job == nullptr) {
              sendErr(client, "unknown job");
              return;
          }
          if (job->state == JobState::Pending ||
              job->state == JobState::Running) {
              waiters_.emplace_back(id, &client);
              return;
          }
          const auto [code, text] = resultFor(*job);
          SnapshotWriter w;
          w.putU8(static_cast<std::uint8_t>(code));
          putString(w, text);
          reply(client, MsgType::RspResult, w.take());
          break;
      }
      default:
          sendErr(client, "unexpected request");
    }
}

void
Coordinator::dropClosedClients(double now)
{
    for (auto it = clients_.begin(); it != clients_.end();) {
        ClientConn &c = *it;
        // A client that stops reading (or reads too slowly to keep
        // its progress stream bounded) is disconnected — the
        // coordinator's memory must not depend on client behaviour.
        if (!c.ch.failed() &&
            (c.ch.outPending() > kClientHighWater ||
             c.ch.writeStalled(now, kClientStallSeconds)))
            c.ch.close();
        if (c.ch.failed() || c.ch.fd() < 0) {
            ClientConn *dead = &c;
            waiters_.erase(
                std::remove_if(waiters_.begin(), waiters_.end(),
                               [dead](const auto &w) {
                                   return w.second == dead;
                               }),
                waiters_.end());
            it = clients_.erase(it);
        } else {
            ++it;
        }
    }
}

// ---------------------------------------------------------------
// Main loop
// ---------------------------------------------------------------

int
Coordinator::run()
{
    ignoreSigpipe();
    installInterruptHandlers();

    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(opts_.stateDir, ec);
    if (ec) {
        neo_warn("cannot create state dir ", opts_.stateDir, ": ",
                 ec.message());
        return kExitServiceUnavailable;
    }
    // Startup hygiene: tmp files orphaned by a crashed snapshot
    // write are reaped before anything can mistake them for state.
    reapStaleCheckpointTmps(opts_.stateDir);

    std::string err;
    if (!queue_.open(opts_.stateDir + "/journal.neoj", nowSec(),
                     err)) {
        neo_warn("journal: ", err);
        return kExitServiceUnavailable;
    }
    queue_.setGroupCommit(true);
    queue_.setCompactionThreshold(opts_.journalCompactBytes);
    nextEpoch_ = queue_.maxEpochSeen() + 1;
    // Partition files whose epoch no live job can resume from are
    // garbage: torn barriers that never reached their manifest
    // record, and committed epochs of jobs that since finished.
    pruneEpochFiles(opts_.stateDir, liveEpochs(queue_.jobs()));

    listenFd_ = listenUnix(opts_.sockPath, err);
    if (listenFd_ < 0) {
        neo_warn("cannot serve: ", err);
        return kExitServiceUnavailable;
    }
    setNonBlocking(listenFd_);

    if (!opts_.listenAddr.empty()) {
        tcpListenFd_ = listenTcp(opts_.listenAddr, err, &tcpBound_);
        if (tcpListenFd_ < 0) {
            neo_warn("cannot listen on ", opts_.listenAddr, ": ",
                     err);
            ::close(listenFd_);
            ::unlink(opts_.sockPath.c_str());
            return kExitServiceUnavailable;
        }
        setNonBlocking(tcpListenFd_);
        advertise_ = opts_.advertiseAddr.empty() ? tcpBound_
                                                 : opts_.advertiseAddr;
        // Publish the resolved endpoint (port 0 becomes concrete
        // here) where scripts and tests can read it.
        const std::string addrPath = opts_.stateDir + "/tcp-addr";
        if (std::FILE *f = std::fopen(addrPath.c_str(), "w")) {
            std::fputs((tcpBound_ + "\n").c_str(), f);
            std::fclose(f);
        }
        neo_inform("listening on ", tcpBound_, " (workers dial ",
                   advertise_, ")");
    }

    draining_ = opts_.drainAndExit;
    neo_inform("serving on ", opts_.sockPath, " (state in ",
               opts_.stateDir, ", ", opts_.workers,
               " workers per job, ", std::max(1u, opts_.maxJobs),
               " concurrent job",
               std::max(1u, opts_.maxJobs) == 1 ? "" : "s", ")");

    // Tagged poll entries: every pollfd carries what it means, and
    // worker entries re-resolve through the attempt map before use —
    // an attempt restarted mid-iteration must not have its successor
    // fed the predecessor's frames.
    enum class Kind
    {
        UnixListen,
        TcpListen,
        Client,
        Pending,
        Pool,
        Worker
    };
    struct Ref
    {
        Kind kind = Kind::UnixListen;
        ClientConn *client = nullptr;
        std::list<PendingConn>::iterator pend;
        std::list<PoolWorker>::iterator pool;
        std::uint64_t attemptId = 0;
        unsigned widx = 0;
    };
    std::vector<pollfd> pfds;
    std::vector<Ref> refs;

    while (!interruptRequested()) {
        if (draining_ && activeAttempts() == 0 &&
            queue_.allTerminal())
            break;
        const double now = nowSec();
        sweepAttempts();
        scheduleJobs(now);

        pfds.clear();
        refs.clear();
        auto add = [&](int fd, short events, Ref ref) {
            pfds.push_back({fd, events, 0});
            refs.push_back(ref);
        };
        {
            Ref r;
            r.kind = Kind::UnixListen;
            add(listenFd_, POLLIN, r);
        }
        if (tcpListenFd_ >= 0) {
            Ref r;
            r.kind = Kind::TcpListen;
            add(tcpListenFd_, POLLIN, r);
        }
        for (auto &c : clients_) {
            Ref r;
            r.kind = Kind::Client;
            r.client = &c;
            add(c.ch.fd(),
                static_cast<short>(
                    POLLIN | (c.ch.wantsWrite() ? POLLOUT : 0)),
                r);
        }
        for (auto it = pending_.begin(); it != pending_.end();
             ++it) {
            Ref r;
            r.kind = Kind::Pending;
            r.pend = it;
            add(it->ch.fd(), POLLIN, r);
        }
        for (auto it = pool_.begin(); it != pool_.end(); ++it) {
            Ref r;
            r.kind = Kind::Pool;
            r.pool = it;
            add(it->ch.fd(),
                static_cast<short>(
                    POLLIN | (it->ch.wantsWrite() ? POLLOUT : 0)),
                r);
        }
        for (auto &[id, a] : attempts_) {
            if (!a.active)
                continue;
            // Relay backpressure: when this attempt's destinations
            // hold too many undrained relay bytes, stop READING its
            // workers — their batch streams stall at their own out-
            // buffers (bounded, no OOM, no drops). Their pongs stall
            // too, so the staleness clock is restamped; the write-
            // stall detector takes over as the failure signal.
            std::size_t relayBytes = 0;
            for (const auto &w : a.workers)
                relayBytes += w.ctl.outPending();
            a.relayPaused = relayBytes > kRelayHighWater;
            for (unsigned i = 0; i < a.workers.size(); ++i) {
                WorkerProc &w = a.workers[i];
                if (!w.alive || !w.connected || w.ctl.fd() < 0)
                    continue;
                if (a.relayPaused)
                    w.lastPong = now;
                const short events = static_cast<short>(
                    (a.relayPaused ? 0 : POLLIN) |
                    (w.ctl.wantsWrite() ? POLLOUT : 0));
                if (events == 0)
                    continue;
                Ref r;
                r.kind = Kind::Worker;
                r.attemptId = id;
                r.widx = i;
                add(w.ctl.fd(), events, r);
            }
        }

        const int rc = ::poll(pfds.data(), pfds.size(), 100);
        if (rc < 0 && errno != EINTR) {
            neo_warn("poll: ", std::strerror(errno));
            break;
        }
        const double after = nowSec();

        MsgType type;
        std::vector<std::uint8_t> body;
        for (std::size_t k = 0; rc > 0 && k < pfds.size(); ++k) {
            if (pfds[k].revents == 0)
                continue;
            Ref &ref = refs[k];
            switch (ref.kind) {
              case Kind::UnixListen:
                  if (pfds[k].revents & POLLIN)
                      acceptOn(listenFd_, false);
                  break;
              case Kind::TcpListen:
                  if (pfds[k].revents & POLLIN)
                      acceptOn(tcpListenFd_, true);
                  break;
              case Kind::Client: {
                  ClientConn &c = *ref.client;
                  if (pfds[k].revents &
                      (POLLIN | POLLHUP | POLLERR))
                      c.ch.readSome();
                  if (pfds[k].revents & POLLOUT)
                      c.ch.flush();
                  while (!c.ch.failed() && c.ch.next(type, body))
                      handleClientFrame(c, type, body);
                  break;
              }
              case Kind::Pending: {
                  if (pfds[k].revents &
                      (POLLIN | POLLHUP | POLLERR))
                      ref.pend->ch.readSome();
                  while (!classifyPending(ref.pend, after)) {
                      // Not yet classifiable and not consumed: no
                      // more buffered frames, go back to poll.
                      break;
                  }
                  break;
              }
              case Kind::Pool: {
                  if (pfds[k].revents &
                      (POLLIN | POLLHUP | POLLERR))
                      ref.pool->ch.readSome();
                  if (pfds[k].revents & POLLOUT)
                      ref.pool->ch.flush();
                  break; // sweepConns judges failure/drain
              }
              case Kind::Worker: {
                  auto it = attempts_.find(ref.attemptId);
                  if (it == attempts_.end() || !it->second.active)
                      break;
                  {
                      WorkerProc &w = it->second.workers[ref.widx];
                      if (w.ctl.fd() != pfds[k].fd)
                          break; // attempt restarted mid-iteration
                      if (pfds[k].revents &
                          (POLLIN | POLLHUP | POLLERR))
                          w.ctl.readSome();
                      if (pfds[k].revents & POLLOUT)
                          w.ctl.flush();
                  }
                  for (;;) {
                      auto cur = attempts_.find(ref.attemptId);
                      if (cur == attempts_.end() ||
                          !cur->second.active)
                          break;
                      WorkerProc &w =
                          cur->second.workers[ref.widx];
                      if (w.ctl.fd() != pfds[k].fd ||
                          !w.ctl.next(type, body))
                          break;
                      handleWorkerFrame(cur->second, ref.widx,
                                        type, body, after);
                  }
                  break;
              }
            }
        }

        supervise(nowSec());
        pulseWaiters(nowSec());
        sweepConns(nowSec());
        // Group commit, then the acknowledgements that depended on
        // it, then connection cleanup (reply pointers are dead after
        // dropClosedClients).
        queue_.commit();
        flushReplies();
        dropClosedClients(nowSec());
    }

    for (auto &[id, a] : attempts_) {
        (void)id;
        if (!a.active)
            continue;
        // Deliberate shutdown mid-attempt: kill the cohort and leave
        // the journal's unmatched START to replay as a failed
        // attempt — identical to a crash, which is the point of
        // crash-only design (shutdown IS the crash path).
        neo_inform("shutting down with job ", a.jobId,
                   " in flight; its attempt will replay as failed");
        stopAttemptWorkers(a);
    }
    queue_.commit();
    if (tcpListenFd_ >= 0)
        ::close(tcpListenFd_);
    ::close(listenFd_);
    ::unlink(opts_.sockPath.c_str());
    return kExitClean;
}

} // namespace

int
runCoordinator(const ServeOptions &opts)
{
    ServeOptions o = opts;
    if (o.stateDir.empty())
        o.stateDir = o.sockPath + ".state";
    if (o.workers == 0)
        o.workers = 1;
    if (o.maxJobs == 0)
        o.maxJobs = 1;
    Coordinator coord(o);
    return coord.run();
}

} // namespace neo
