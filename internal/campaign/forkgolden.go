package campaign

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kfi/internal/inject"
	"kfi/internal/kernel"
	"kfi/internal/machine"
	"kfi/internal/snapshot"
)

// ExecOptions tune how a campaign executes its injections. Every campaign
// runs fork-from-golden: the golden prefix up to each injection's trigger
// point is executed once, checkpointed with internal/snapshot, and every
// experiment sharing that prefix is restore-inject-resumed in O(dirty
// pages). The restored state is cycle-exact, so outcomes equal the paper's
// literal reboot-and-replay procedure (ReplayFromBoot, the reference the
// equivalence tests compare against); only wall-clock time differs.
type ExecOptions struct {
	// Journal, when set, durably records every completed outcome (one
	// append-only record per injection) as the campaign runs, so a killed
	// process can resume instead of restarting from zero.
	Journal *Journal
	// Completed maps target indices to already-journaled outcomes from an
	// interrupted run of the same campaign: their injections are skipped and
	// the recorded results used verbatim, so a resumed campaign continues
	// bit-identically where it left off.
	Completed map[int]inject.Result

	// Sense runs the static error-sensitivity pre-pass (internal/staticsense)
	// over the campaign's code targets and annotates every result with the
	// analyzer's predicted class (inject.Result.PredClass/PredInert), feeding
	// the predicted-vs-observed confusion matrix without changing which
	// injections execute.
	Sense bool

	// SectionCache, when set, is the directory of the per-section outcome
	// cache (FastFlip-style incremental campaigns). Targets are grouped into
	// sections — code targets by the containing kernel function, every other
	// campaign into one whole-image section — and each section's completed
	// rows are persisted keyed by a content hash of the section's compiled
	// bytes, its target list (triggers included), the campaign parameters,
	// and the traced golden run's fingerprint. A re-run whose section hashes
	// all match replays every row from the cache; a run with one modified
	// section re-executes only that section. Rows are stamped with
	// inject.Result.PredCached on cold and warm runs alike, so warm tables
	// and journals stay byte-identical to the cold run that filled the
	// cache.
	SectionCache string
	// onSection, when set (tests), observes each section's cache decision.
	onSection func(name string, hit bool)

	// MaxAttempts bounds supervised attempts per injection before its
	// outcome is recorded as inject.OQuarantined (0 = default 3).
	MaxAttempts int
	// injectionTimeout (tests) overrides the per-attempt wall-clock
	// watchdog. An attempt that exceeds it is abandoned and retried on a
	// respawned node (Farm and study runs; RunWith cannot replace its
	// caller's machine and reports an error). 0 = default 2m; negative
	// disables the watchdog.
	injectionTimeout time.Duration
	// retryBackoff (tests) overrides the delay before the first retry; it
	// doubles with every further attempt (0 = default 2ms).
	retryBackoff time.Duration
}

// recorder serializes campaign completion accounting: the monotone progress
// count and the journal appends, shared by every node goroutine.
type recorder struct {
	mu       sync.Mutex
	journal  *Journal
	progress func(done, total int)
	results  []inject.Result
	// sense, when set, annotates every completed result with its static
	// prediction before the journal append, so predictions are durable
	// alongside outcomes.
	sense *sensePass
	// markCached stamps PredCached on every completed result (section-cache
	// runs): the marker records cache membership, not a hit, so cold and
	// warm runs journal identical rows.
	markCached bool
	done       int
}

// complete records results[idx] as finished. Resumed outcomes replayed from
// the journal pass journal=false — they are already durable.
func (rc *recorder) complete(idx int, journal bool) error {
	rc.mu.Lock()
	rc.done++
	d := rc.done
	if rc.markCached {
		rc.results[idx].PredCached = true
	}
	rc.sense.annotate(idx, &rc.results[idx])
	var err error
	if journal && rc.journal != nil {
		err = rc.journal.Append(idx, rc.results[idx])
	}
	rc.mu.Unlock()
	if err != nil {
		return err
	}
	if rc.progress != nil {
		rc.progress(d, len(rc.results))
	}
	return nil
}

// RunWith is Run with explicit execution options.
func RunWith(sys *kernel.System, golden uint32, profile *Profile, spec Spec,
	progress func(done, total int), opts ExecOptions) (*Result, error) {
	return run([]*kernel.System{sys}, nil, execHooks{}, golden, profile, spec, nil, progress, opts)
}

// run is the one campaign driver behind RunWith, Farm.RunWith and the harden
// study: it builds the plan on the first node and completes every row
// through one executor over all of them. respawn (nil: none) builds
// replacement nodes; targets (nil: generate from spec) is passed to NewPlan.
func run(nodes []*kernel.System, respawn func() (*kernel.System, error), hooks execHooks,
	golden uint32, profile *Profile, spec Spec, targets []inject.Target,
	progress func(done, total int), opts ExecOptions) (*Result, error) {
	ex := newExecutor(nodes, golden, opts, respawn, hooks)
	defer ex.close()
	plan, err := NewPlan(nodes[0], golden, profile, spec, targets, opts)
	if err != nil {
		return nil, err
	}
	results := make([]inject.Result, len(plan.Targets))
	rec := &recorder{journal: opts.Journal, progress: progress, results: results,
		sense: plan.sense, markCached: opts.SectionCache != ""}
	if err := plan.execute(ex, results, rec.complete); err != nil {
		return nil, err
	}
	if err := plan.secs.store(results); err != nil {
		return nil, err
	}
	return &Result{Spec: spec, Platform: nodes[0].Platform, Results: results,
		EngineStats: ex.stats(), Executed: len(plan.Order), Synthesized: plan.synthesized}, nil
}

// ReplayFromBoot runs targets the paper's literal way, one inject.RunOne per
// target: reboot, replay the benchmark from boot to the trigger, inject, and
// run to an outcome. No plan, snapshot or supervision is involved, which is
// what makes it the reference the fork-from-golden executor is tested
// against.
func ReplayFromBoot(sys *kernel.System, golden uint32, targets []inject.Target) []inject.Result {
	out := make([]inject.Result, len(targets))
	for i, t := range targets {
		out[i] = inject.RunOne(sys, t, golden)
	}
	return out
}

// nodeState is the machine-owning half of a chunkRunner: the guest system,
// its snapshot chain, and everything else a supervised attempt may mutate.
// When a wall-clock watchdog abandons an attempt, the goroutine it leaks
// still owns this state, so the runner replaces the whole nodeState rather
// than reusing any part of it.
type nodeState struct {
	sys  *kernel.System
	snap *snapshot.Snapshot
	// trig is the trigger snap was last paused for (0: boot). snap is the
	// state a from-boot replay pauses in for trig, so it serves any trigger
	// at or after it.
	trig uint64
	// goldenEnd, once set, is the golden run's completion as observed from a
	// trigger beyond its end; every later trigger is also beyond the end.
	goldenEnd *machine.RunResult
}

// chunkRunner executes trigger-sorted slices of a plan on one system,
// chaining one incremental checkpoint along the golden prefix:
//
//	for each target (by ascending trigger):
//	    restore the checkpoint             — O(pages dirtied by the last run)
//	    advance golden to the trigger      — only forward, each cycle once
//	    re-checkpoint in place             — O(pages dirtied by the advance)
//	    inject and run to an outcome
//
// Because the machine's pause points are the deterministic loop-top cycle
// counts of the golden run, a checkpoint taken at the pause for trigger T is
// bit-identical to the state a from-boot replay pauses in for any trigger in
// (T, pause], and advancing from it reproduces the from-boot pause for later
// triggers. Outcomes therefore match ReplayFromBoot exactly.
//
// The runner is stateful so a node can execute many chunks with one
// snapshot chain: as long as successive chunks carry non-decreasing triggers
// (the steal queue hands chunks out in global trigger order), the checkpoint
// only ever advances forward and the invariant above holds across chunk
// boundaries. A chunk requeued by
// node failover can carry triggers below the last one the chain served; the
// runner then restarts its chain from boot, which reproduces the same
// deterministic pause states. A trigger at or below the checkpoint's pause
// cycle but not below the last trigger served lies in the (T, pause] window
// above and needs no restart: a pause lands on the first loop-top cycle at
// or after its trigger, or on the next timer when the guest idles, so
// neighboring sorted triggers often share one.
//
// Every injection is executed under the supervision policy (panic isolation,
// wall-clock watchdog, retry with backoff, quarantine) — see supervise.go.
type chunkRunner struct {
	st     *nodeState
	golden uint32
	sup    supervision
	// plan is the plan the snapshot chain serves (see executor.run).
	plan *Plan

	// respawn, when set, builds a replacement guest system after a
	// watchdog timeout poisoned the current one.
	respawn func() (*kernel.System, error)
	// injectFrom runs one injection from the prepared machine state;
	// overridden by tests to seed panics and hangs.
	injectFrom func(idx int, sys *kernel.System, t inject.Target, golden uint32) inject.Result
	// fault, when set (tests), simulates SIGKILL-style node loss: a non-nil
	// error for a target index kills this node before the attempt runs.
	fault func(idx int) error
}

// newChunkRunner prepares a runner on sys. The snapshot chain starts lazily
// on the first attempt. Call close when done.
func newChunkRunner(sys *kernel.System, golden uint32, sup supervision) *chunkRunner {
	return &chunkRunner{
		st:     &nodeState{sys: sys},
		golden: golden,
		sup:    sup,
		injectFrom: func(_ int, sys *kernel.System, t inject.Target, golden uint32) inject.Result {
			return inject.RunFrom(sys, t, golden)
		},
	}
}

func (r *chunkRunner) close() {
	if r.st.snap != nil {
		r.st.sys.Machine.Mem.ClearBaseline()
	}
}

// serve points the runner at plan, dropping a snapshot chain built for
// another plan.
func (r *chunkRunner) serve(plan *Plan) {
	if r.plan != plan {
		r.close()
		r.st = &nodeState{sys: r.st.sys}
		r.plan = plan
	}
}

// run executes one contiguous trigger-sorted slice of the plan, writing
// each target's result to out[idx] and reporting completion via done. A
// permanently lost node surfaces as *nodeLostError carrying the unfinished
// remainder (including the in-flight entry) for the executor to requeue.
func (r *chunkRunner) run(order []trigOrder, out []inject.Result, done func(idx int) error) error {
	for k, o := range order {
		res, err := r.runTarget(o)
		if err != nil {
			if errors.Is(err, errNodeDown) {
				return &nodeLostError{remaining: order[k:], cause: err}
			}
			return err
		}
		out[o.idx] = res
		if err := done(o.idx); err != nil {
			return err
		}
	}
	return nil
}

// runTarget executes one scheduled injection under supervision: panics are
// retried from a fresh snapshot restore with exponential backoff, watchdog
// timeouts poison the machine and continue on a respawned one, and an
// injection that exhausts its attempt budget is quarantined rather than
// aborting the campaign.
func (r *chunkRunner) runTarget(o trigOrder) (inject.Result, error) {
	t := r.plan.Targets[o.idx]
	if r.fault != nil {
		if err := r.fault(o.idx); err != nil {
			return inject.Result{}, err
		}
	}
	if ge := r.st.goldenEnd; ge != nil && o.trig > ge.Cycles {
		return notActivatedResult(t, ge.Cycles, ge.Checksum), nil
	}
	var diag string
	for attempt := 1; ; attempt++ {
		// Pin the node state before the attempt goroutine launches: after a
		// timeout the abandoned goroutine keeps running against this state,
		// so the next attempt must see a replacement, never a shared one.
		st := r.st
		out, timedOut := superviseAttempt(r.sup.timeout, func() (inject.Result, error) {
			return r.attempt(st, o, t)
		})
		switch {
		case timedOut:
			diag = fmt.Sprintf("wall-clock watchdog (%v) exceeded", r.sup.timeout)
			if err := r.replaceNode(); err != nil {
				return inject.Result{}, err
			}
		case out.panicked:
			diag = out.diag
		case out.err != nil:
			// Harness infrastructure failed (snapshot restore, respawn):
			// not a per-injection condition, abort the run.
			return inject.Result{}, out.err
		default:
			return out.res, nil
		}
		if attempt >= r.sup.maxAttempts {
			return quarantinedResult(t, attempt, diag), nil
		}
		time.Sleep(r.sup.backoff << (attempt - 1))
	}
}

// replaceNode swaps in a fresh guest system after a watchdog timeout left
// the current machine to an abandoned goroutine. Runners without respawn
// (RunWith) run on their caller's machine and cannot replace it; they drop
// their state so close leaves the machine to the abandoned attempt.
func (r *chunkRunner) replaceNode() error {
	if r.respawn == nil {
		r.st = &nodeState{sys: r.st.sys}
		return fmt.Errorf("campaign: injection exceeded the %v wall-clock watchdog; the caller's machine is unrecoverable (run through a Farm for automatic respawn)", r.sup.timeout)
	}
	sys, err := r.respawn()
	if err != nil {
		return fmt.Errorf("campaign: respawn after watchdog timeout: %w", err)
	}
	r.st = &nodeState{sys: sys}
	return nil
}

// attempt is one supervised execution of a scheduled target: ensure the
// snapshot chain covers the trigger, restore, advance, re-checkpoint, and
// inject. It mutates only st (pinned by the caller) so an abandoned attempt
// can never corrupt a successor's state.
func (r *chunkRunner) attempt(st *nodeState, o trigOrder, t inject.Target) (inject.Result, error) {
	m := st.sys.Machine
	if st.snap == nil || o.trig < st.trig {
		// First use, or a requeued trigger behind the chain: restart the
		// chain from boot. The restarted chain passes through the same
		// deterministic pause states, so outcomes are unchanged.
		m.Reboot()
		st.snap, st.trig = snapshot.Capture(m), 0
	}
	snap := st.snap
	if _, err := snap.Restore(m); err != nil {
		return inject.Result{}, err
	}
	if o.trig > snap.Cycles {
		m.PauseAt = o.trig
		pre := m.Run()
		if pre.Outcome != machine.OutPaused {
			// The benchmark finished before the trigger was reached: the
			// pre-generated error is never injected (RunOne's early
			// return), and so is every later, larger trigger.
			st.goldenEnd = &pre
			return notActivatedResult(t, pre.Cycles, pre.Checksum), nil
		}
		if _, err := snap.Recapture(m); err != nil {
			return inject.Result{}, err
		}
		st.trig = o.trig
	}
	return r.injectFrom(o.idx, st.sys, t, r.golden), nil
}
