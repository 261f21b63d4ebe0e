// Package resilience is the serving layer's survival kit: the mechanisms
// that keep one exrquyd process answering correctly while individual
// clients misbehave, individual queries wedge, and the network drops
// bytes on the floor.
//
// Four mechanisms, layered in front of (never instead of) the governor's
// admission control:
//
//   - Limiter: per-client token buckets (burst + sustained QPS) keyed on
//     API key. Rate limiting answers "is this client sending too fast?"
//     before the governor's admission gate answers "is the process too
//     busy?" — the two compose, and their rejections stay distinguishable
//     (qerr.ErrRateLimited vs qerr.ErrOverload, both 429).
//
//   - Watchdog: a per-query progress monitor. Every in-flight query
//     registers a heartbeat counter that the engine's existing
//     cooperative poll points bump (engine.Exec.CheckCancel — the same
//     sites that poll ctx.Done); a query silent for a full threshold is
//     cancelled through its context with ErrStuck as the cause. The
//     check is timer-based per probe (no central goroutine), and a
//     wedged query is killed within at most 2x the threshold.
//
//   - BreakerSet: per-client circuit breakers (closed → open → half-open)
//     tripped by consecutive watchdog kills or internal errors, so one
//     pathological query pattern fails fast instead of repeatedly
//     occupying governor slots until the watchdog fires.
//
//   - InjectFaults: the HTTP site of the process's one fault plane
//     (internal/fault). Injected latency, forced 500/503, connection
//     resets and partial-body truncation fire on the armed plan's
//     residues of the /query request count, so a failing chaos run
//     replays exactly. With no plan armed — production — it is inert.
//
// All of this is licensed by the paper's central property: order
// indifference makes evaluation of order-dead plan regions insensitive
// to how — and how many times, and on which path — they are executed.
// A query killed by the watchdog and retried, a request hedged against
// the same engine, a response re-requested after an injected reset: each
// re-execution yields byte-identical results, so the serving layer may
// retry, hedge and degrade freely without changing answers (the same
// argument that licensed morsel parallelism and serial degradation).
//
// Metric handles live in internal/obs alongside the engine/governor
// families (ratelimit_*, watchdog_*, breaker_*; injected faults count in
// faults_injected_total).
package resilience
