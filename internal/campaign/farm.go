package campaign

import (
	"errors"
	"fmt"
	"sync"

	"kfi/internal/cc"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/platform"
	"kfi/internal/workload"
)

// Guest is one built guest system measured fault-free: its golden checksum
// and run length and its kernel-usage profile, all read from the system's
// one traced golden run (kernel.System.GoldenTrace). Build makes identical
// siblings from the same compiled images, for farm nodes and respawns; a
// sibling traces its own golden run only when a plan first needs it.
type Guest struct {
	Sys     *kernel.System
	Golden  uint32
	Cycles  uint64
	Profile *Profile
	Build   func() (*kernel.System, error)
}

// NewGuest compiles the benchmark workload once at the given scale (< 1
// means 1), builds a guest system of the platform with opts, and traces its
// golden run, which gives the checksum, the run length and the kernel
// profile. It is the one system constructor behind core.BuildSystem, Farm
// and the harden study.
func NewGuest(platform isa.Platform, scale int, opts kernel.Options) (*Guest, error) {
	uimg, err := cc.Compile(workload.Program(max(scale, 1)), platform, kernel.UserBases)
	if err != nil {
		return nil, fmt.Errorf("campaign: compile workload: %w", err)
	}
	g := &Guest{Build: func() (*kernel.System, error) {
		return kernel.BuildSystem(platform, uimg, workload.StandardProcs(), opts)
	}}
	if g.Sys, err = g.Build(); err != nil {
		return nil, err
	}
	tr, err := g.Sys.GoldenTrace()
	if err != nil {
		return nil, err
	}
	g.Golden, g.Cycles, g.Profile = tr.Checksum(), tr.Cycles(), profileOf(g.Sys.KernelImage, tr.TextCycles)
	return g, nil
}

// Farm distributes one campaign's injections across several identical guest
// systems running concurrently — the paper's setup of "three P4 and two G4
// machines ... used in the injection campaigns to speed up the experiments".
// Every node is built from the same images, so results are the union of
// deterministic per-node runs.
type Farm struct {
	guest *Guest
	nodes []*kernel.System
	// execHooks are test hooks (nil in production). injectFrom overrides
	// the injection step on every node; fault simulates SIGKILL-style node
	// loss (a non-nil error for (node, idx) kills that node before the
	// attempt runs — replacement nodes carry fresh ids, so a hook keyed on
	// original ids fires at most once per node).
	execHooks
}

// NewFarm builds n (< 1 means 1) identical guest systems of the given
// platform. opts may be zero; the workload runs at the given scale.
func NewFarm(platform isa.Platform, n, scale int, opts kernel.Options) (*Farm, error) {
	g, err := NewGuest(platform, scale, opts)
	if err != nil {
		return nil, err
	}
	f := &Farm{guest: g, nodes: []*kernel.System{g.Sys}}
	for i := 1; i < n; i++ {
		sys, err := g.Build()
		if err != nil {
			return nil, fmt.Errorf("campaign: farm node %d: %w", i, err)
		}
		f.nodes = append(f.nodes, sys)
	}
	return f, nil
}

// Nodes returns the number of guest systems.
func (f *Farm) Nodes() int { return len(f.nodes) }

// Golden returns the fault-free checksum shared by all nodes.
func (f *Farm) Golden() uint32 { return f.guest.Golden }

// Profile returns the kernel-usage profile measured on node 0.
func (f *Farm) Profile() *Profile { return f.guest.Profile }

// Run executes a campaign, fanning targets out over the nodes. Results come
// back in target order regardless of which node executed them, so a Farm run
// produces the same per-index results as a single-node run of the same spec.
func (f *Farm) Run(spec Spec, progress func(done, total int)) (*Result, error) {
	return f.RunWith(spec, progress, ExecOptions{})
}

// RunWith is Run with explicit execution options. It is RunWith's driver
// over every node, with replacement nodes built from the farm's compiled
// images: a node lost mid-chunk or poisoned by a watchdog timeout is
// replaced, so a campaign's outcome table is identical with and without
// mid-run node loss.
func (f *Farm) RunWith(spec Spec, progress func(done, total int), opts ExecOptions) (*Result, error) {
	return run(f.nodes, f.guest.Build, f.execHooks, f.guest.Golden, f.guest.Profile,
		spec, nil, progress, opts)
}

// execHooks are the executor's test hooks; see Farm.
type execHooks struct {
	injectFrom func(idx int, sys *kernel.System, t inject.Target, golden uint32) inject.Result
	fault      func(node, idx int) error
}

// executor is the one way a plan's rows execute: a steal-queue supervisor
// over one chunkRunner per node. Nodes steal small contiguous chunks of the
// trigger-sorted order, so neighboring triggers still share incremental
// checkpoints within a node while a node that draws long-latency hangs
// cannot straggle with a large fixed share. A node that dies has its
// unfinished chunk requeued and, when respawn is set, a replacement node
// built (up to a respawn budget). Runners keep their snapshot chains across
// run calls against the same plan.
type executor struct {
	golden uint32
	// sup is the supervision policy every runner, respawned ones included,
	// executes under; it is fixed when the executor is built.
	sup     supervision
	respawn func() (*kernel.System, error)
	hooks   execHooks
	runners []*chunkRunner
	nextID  int
	// retired accumulates the engine counters of replaced nodes.
	retired platform.EngineStats
}

// newExecutor zeroes every node's engine counters and gives it a runner
// under opts' supervision policy.
func newExecutor(nodes []*kernel.System, golden uint32, opts ExecOptions,
	respawn func() (*kernel.System, error), hooks execHooks) *executor {
	ex := &executor{golden: golden, sup: opts.supervision(), respawn: respawn, hooks: hooks}
	for _, sys := range nodes {
		sys.Machine.Engine().ResetStats()
		ex.runners = append(ex.runners, ex.newRunner(sys))
	}
	return ex
}

// newRunner gives sys a runner wired to the executor's respawn and hooks,
// under a fresh node id.
func (ex *executor) newRunner(sys *kernel.System) *chunkRunner {
	r := newChunkRunner(sys, ex.golden, ex.sup)
	r.respawn = ex.respawn
	if ex.hooks.injectFrom != nil {
		r.injectFrom = ex.hooks.injectFrom
	}
	if fault := ex.hooks.fault; fault != nil {
		id := ex.nextID
		r.fault = func(idx int) error { return fault(id, idx) }
	}
	ex.nextID++
	return r
}

// run executes order, a trigger-sorted subset of plan's order, writing each
// result to out[idx] and reporting it through done (called concurrently
// from node goroutines when there are several nodes).
func (ex *executor) run(plan *Plan, order []trigOrder, out []inject.Result, done func(idx int) error) error {
	for _, r := range ex.runners {
		r.serve(plan)
	}
	if len(order) == 0 {
		return nil
	}
	// Small chunks keep the shared queue a cheap load balancer; several per
	// node bound the straggler cost of an unlucky chunk to ~1/8 of a node's
	// fair share. The queue hands fresh chunks out in ascending trigger
	// order, so a node's checkpoint only ever advances forward (requeued
	// failover remnants are the exception; the runner restarts its chain).
	q := &stealQueue{order: order, chunk: max(len(order)/(len(ex.runners)*8), 1)}
	type exit struct {
		slot  int
		err   error
		panic any // a panic in done, re-raised on the caller's goroutine
	}
	ch := make(chan exit, len(ex.runners))
	work := func(slot int, r *chunkRunner) {
		x := exit{slot: slot}
		defer func() {
			if x.panic = recover(); x.panic != nil {
				q.stop()
			}
			ch <- x
		}()
		for {
			slice, ok := q.pop()
			if !ok {
				return
			}
			if x.err = r.run(slice, out, done); x.err != nil {
				var nl *nodeLostError
				if errors.As(x.err, &nl) {
					q.requeue(nl.remaining)
				} else {
					q.stop()
				}
				return
			}
		}
	}
	for slot, r := range ex.runners {
		go work(slot, r)
	}

	// Supervise: replace lost nodes (fresh ids) until the respawn budget is
	// spent, and surface the first fatal error or panic.
	respawns := 0
	if ex.respawn != nil {
		respawns = 2 * len(ex.runners)
	}
	var (
		fatal    error
		panicked any
	)
	for live := len(ex.runners); live > 0; live-- {
		x := <-ch
		var nl *nodeLostError
		switch {
		case x.panic != nil:
			if panicked == nil {
				panicked = x.panic
			}
		case x.err == nil || fatal != nil || panicked != nil:
		case !errors.As(x.err, &nl):
			fatal = x.err
		case respawns == 0:
			fatal = fmt.Errorf("campaign: node respawn budget exhausted: %w", x.err)
		default:
			respawns--
			sys, err := ex.respawn()
			if err != nil {
				fatal = fmt.Errorf("campaign: spawning replacement node: %w", err)
				break
			}
			old := ex.runners[x.slot]
			old.close()
			ex.retired.Add(old.st.sys.Machine.Engine().Stats())
			r := ex.newRunner(sys)
			r.serve(plan)
			ex.runners[x.slot] = r
			live++
			go work(x.slot, r)
		}
		if fatal != nil {
			q.stop()
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	return fatal
}

// stats sums the engine counters of every node the executor ran (systems
// poisoned by a watchdog lose their tally; the counters are observability,
// never correctness).
func (ex *executor) stats() platform.EngineStats {
	s := ex.retired
	for _, r := range ex.runners {
		s.Add(r.st.sys.Machine.Engine().Stats())
	}
	return s
}

// close releases every runner's snapshot chain.
func (ex *executor) close() {
	for _, r := range ex.runners {
		r.close()
	}
}

// stealQueue is the executor's shared work source: a cursor over the
// trigger-sorted order handing out small contiguous chunks, plus a requeue
// list fed by node failover. Requeued slices are served first — they carry
// the lowest triggers, and the runner that picks one up restarts its
// snapshot chain for them.
type stealQueue struct {
	mu       sync.Mutex
	order    []trigOrder
	next     int
	chunk    int
	requeued [][]trigOrder
	stopped  bool
}

// pop hands out the next unit of work: a requeued remnant if any, else the
// next fresh chunk. false means the queue is drained or stopped.
func (q *stealQueue) pop() ([]trigOrder, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.stopped {
		return nil, false
	}
	if len(q.requeued) > 0 {
		s := q.requeued[0]
		q.requeued = q.requeued[1:]
		return s, true
	}
	if q.next >= len(q.order) {
		return nil, false
	}
	lo := q.next
	q.next += q.chunk
	return q.order[lo:min(lo+q.chunk, len(q.order))], true
}

// requeue returns a dead node's unfinished slice to the queue.
func (q *stealQueue) requeue(rem []trigOrder) {
	if len(rem) == 0 {
		return
	}
	q.mu.Lock()
	q.requeued = append(q.requeued, rem)
	q.mu.Unlock()
}

// stop drains the queue so every worker winds down after a fatal error.
func (q *stealQueue) stop() {
	q.mu.Lock()
	q.stopped = true
	q.mu.Unlock()
}
