/**
 * @file
 * One sharded exploration worker of the verification service.
 *
 * A job's state space is partitioned by fingerprint: worker i of W
 * owns every canonical state whose stateHash() satisfies
 * `hash % W == i`. Each worker runs the plain BFS expansion loop over
 * its own partition and routes foreign successors to their owner over
 * a full mesh of socketpairs — the classic distributed-Murphi
 * decomposition, in-process-tree instead of cross-machine.
 *
 * Workers are crash-only leaf processes: forked per attempt, never
 * exec'd, terminated with _exit. They answer the coordinator's
 * heartbeat pings with their counters, pause for coordinated
 * checkpoint barriers, write their partition snapshot in the standard
 * explore-snapshot codec (so the format is shared with single-process
 * checkpoints), and die silently when the control channel closes —
 * a worker must never outlive its coordinator.
 */

#ifndef NEO_VERIF_SERVICE_WORKER_HPP
#define NEO_VERIF_SERVICE_WORKER_HPP

#include <string>
#include <vector>

#include "verif/parametric.hpp"
#include "verif/service/job_queue.hpp"
#include "verif/transition_system.hpp"

namespace neo
{

/** Inherited file descriptors of a freshly forked worker. Empty (all
 *  -1) in TCP star mode, where the worker dials the coordinator. */
struct WorkerEndpoints
{
    /** Coordinator control socket (pings, barriers, verdicts). */
    int control = -1;
    /** Mesh sockets, indexed by peer worker; peers[self] == -1. */
    std::vector<int> peers;
};

struct WorkerConfig
{
    unsigned index = 0; ///< this worker's shard
    unsigned count = 1; ///< workers in the attempt (W)
    JobSpec spec;
    /** Directory holding partition snapshots (the service state dir). */
    std::string partDir;
    /** Nonzero: load this committed epoch's partition files before
     *  exploring. The epoch may have been written by a DIFFERENT
     *  worker count — each worker reads all resumeParts files and
     *  keeps only the states it owns under the new W (reshard). */
    std::uint64_t resumeEpoch = 0;
    std::uint32_t resumeParts = 0;
    /** 1-based attempt number of the job. Passed explicitly (not
     *  inferred from resumeEpoch == 0: a retry with no committed
     *  epoch also starts from scratch) because JobSpec::holdAfter
     *  applies to attempt 1 only. */
    std::uint32_t attempt = 1;

    /** TCP star mode: non-empty makes the worker dial this address,
     *  authenticate with Hello{jobId, nonce, index}, wait for the
     *  Start barrier, and route foreign states through the
     *  coordinator relay (StatesTo) instead of a peer mesh. */
    std::string coordAddr;
    std::uint64_t jobId = 0;
    /** Per-attempt nonce: a Hello from a stale attempt (pre-retry
     *  fork, delayed proxy bytes) authenticates against the wrong
     *  epoch and is refused, so it can never pollute the successor
     *  attempt's fixpoint accounting. */
    std::uint64_t nonce = 0;
    /** Coordinator heartbeat, sizing the worker-side read deadline:
     *  a link silent for ~10 heartbeats means the coordinator (or
     *  the path to it) is gone, and the worker exits rather than
     *  explore into the void. */
    double heartbeatSeconds = 1.0;
};

/** Pool agent (neoverify --join <host:port>): offers this box to the
 *  coordinator, forks one worker per Assign, reconnects after each.
 *  Runs until interrupted. */
struct JoinOptions
{
    std::string coordAddr;
    /** Local partition directory. Non-empty advertises resume
     *  capability (canResume) — only meaningful when it names the
     *  same storage the coordinator's state dir lives on. */
    std::string stateDir;
    /** Reconnect delay after a refused/failed connection. */
    double retrySeconds = 1.0;
};

/** @return a process exit code (clean on interrupt). */
int runJoinAgent(const JoinOptions &opts);

/** Build the model a JobSpec names. @p err non-empty (and an empty
 *  system returned) when the spec is unknown — the coordinator calls
 *  this at submit time so bad specs are rejected at the door. */
TransitionSystem buildJobModel(const JobSpec &spec, ModelShape &shape,
                               std::string &err);

/** Worker process body; never returns (always _exit). */
[[noreturn]] void runWorkerProcess(const WorkerConfig &cfg,
                                   const WorkerEndpoints &eps);

/** Worker _exit codes the coordinator distinguishes in logs. */
inline constexpr int kWorkerExitInjectedCrash = 113;
inline constexpr int kWorkerExitSetupFailed = 114;
/** TCP link to the coordinator went silent, stalled, or corrupted:
 *  the worker removes itself rather than explore into the void (the
 *  coordinator independently fails the attempt from its side). */
inline constexpr int kWorkerExitLinkLost = 115;

} // namespace neo

#endif // NEO_VERIF_SERVICE_WORKER_HPP
