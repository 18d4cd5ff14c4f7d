package campaign

import (
	"fmt"
	"sort"

	"kfi/internal/inject"
	"kfi/internal/kernel"
	"kfi/internal/machine"
)

// Plan is a campaign's deterministic execution plan, built once by NewPlan
// and executed by one executor whatever the entry point: RunWith, a Farm, a
// NodeRunner serving ctlplane leases, or the harden study. Two plans built
// from identical systems for the same spec and options are identical —
// target generation is seeded and the guest is deterministic — which is what
// lets a coordinator plan a campaign that remote workers re-derive
// independently.
type Plan struct {
	Targets []inject.Target
	// Order lists the target indices that execute, sorted by trigger cycle
	// (the order a snapshot chain wants them in).
	Order []int
	// Pre maps target indices to the rows synthesized without execution:
	// code targets whose instruction the golden run never reaches.
	Pre map[int]inject.Result

	// order backs Order with the trigger cycles, so executing a subset
	// never re-traces the golden run.
	order []trigOrder
	// ready is every row complete without execution, in stream order:
	// resumed rows (already journaled), then section-cache hits, then Pre
	// rows by ascending index.
	ready []readyRow
	// golden is the traced golden run (nil when nothing needed it).
	golden *goldenTrace
	sense  *sensePass
	secs   *sectionSet
}

// readyRow is one row the plan completes without execution.
type readyRow struct {
	idx     int
	res     inject.Result
	journal bool // false for resumed rows, which are already durable
}

// trigOrder pairs a target index with its trigger cycle (the golden-run cycle
// count just before the injection acts).
type trigOrder struct {
	trig uint64
	idx  int
}

// Targets is the plan's target step: spec.N targets drawn from the seeded
// generator, with mid-run delays spread over the profiled benchmark length.
func Targets(sys *kernel.System, profile *Profile, spec Spec) ([]inject.Target, error) {
	return NewGenerator(sys, profile, spec.Seed, profileCycles(profile)).Targets(spec)
}

// NewPlan builds the plan for spec on sys. targets, when non-nil, replaces
// target generation (the harden study runs matched lists). The steps, in
// order: generate targets, run the static sense pass (opts.Sense), sort
// targets by trigger cycle — tracing the golden run when code targets or
// the section cache need it — synthesize unreached rows, load section-cache
// hits (opts.SectionCache), and skip the rows opts.Completed already holds.
func NewPlan(sys *kernel.System, golden uint32, profile *Profile, spec Spec,
	targets []inject.Target, opts ExecOptions) (*Plan, error) {
	if targets == nil {
		var err error
		if targets, err = Targets(sys, profile, spec); err != nil {
			return nil, err
		}
	}
	sense, err := buildSense(sys, targets, opts)
	if err != nil {
		return nil, err
	}
	p := &Plan{Targets: targets, Pre: map[int]inject.Result{}, sense: sense}
	if err := p.sortByTrigger(sys, opts.SectionCache != ""); err != nil {
		return nil, err
	}
	if p.secs, err = openSectionCache(sys, golden, spec, targets, p.golden, opts); err != nil {
		return nil, err
	}

	skip := make([]bool, len(targets))
	for i := range targets {
		if r, ok := opts.Completed[i]; ok {
			p.ready = append(p.ready, readyRow{idx: i, res: r})
			skip[i] = true
		}
	}
	p.ready = append(p.ready, p.secs.restore(skip)...)
	for i := range targets {
		if r, ok := p.Pre[i]; ok && !skip[i] {
			p.ready = append(p.ready, readyRow{idx: i, res: r, journal: true})
			skip[i] = true
		}
	}
	kept := p.order[:0]
	for _, o := range p.order {
		if !skip[o.idx] {
			kept = append(kept, o)
			p.Order = append(p.Order, o.idx)
		}
	}
	p.order = kept
	return p, nil
}

// sortByTrigger computes each target's trigger cycle and sorts targets by
// it. Delay-triggered targets (stack, system registers) use their Delay;
// code targets use the first golden-run execution of their address, and
// those never executed become synthesized not-activated rows; everything
// else injects at boot (trigger 0). The golden run is traced when code
// targets need it or trace is set.
func (p *Plan) sortByTrigger(sys *kernel.System, trace bool) error {
	for _, t := range p.Targets {
		trace = trace || t.Campaign == inject.CampCode
	}
	if trace {
		var err error
		if p.golden, err = traceGolden(sys); err != nil {
			return err
		}
	}
	p.order = make([]trigOrder, 0, len(p.Targets))
	for i, t := range p.Targets {
		switch {
		case t.Delay > 0:
			p.order = append(p.order, trigOrder{t.Delay, i})
		case t.Campaign == inject.CampCode:
			c, ok := p.golden.firstHit[t.Addr]
			if !ok {
				p.Pre[i] = notActivatedResult(t, p.golden.cycles, p.golden.checksum)
				continue
			}
			p.order = append(p.order, trigOrder{c, i})
		default:
			p.order = append(p.order, trigOrder{0, i})
		}
	}
	sort.SliceStable(p.order, func(a, b int) bool { return p.order[a].trig < p.order[b].trig })
	return nil
}

// execute completes the plan's rows that want selects (nil selects all) on
// ex, writing each into out before calling done: first the ready rows in
// stream order, then the executed rows in trigger order. This fixes the
// journal's append order for single-node runs, so two identical runs write
// identical bytes.
func (p *Plan) execute(ex *executor, want func(idx int) bool, out []inject.Result,
	done func(idx int, journal bool) error) error {
	for _, r := range p.ready {
		if want != nil && !want(r.idx) {
			continue
		}
		out[r.idx] = r.res
		if err := done(r.idx, r.journal); err != nil {
			return err
		}
	}
	order := p.order
	if want != nil {
		order = nil
		for _, o := range p.order {
			if want(o.idx) {
				order = append(order, o)
			}
		}
	}
	return ex.run(p, order, out, func(idx int) error { return done(idx, true) })
}

// goldenTrace is one traced golden run: the first cycle at which each PC is
// about to execute, plus the run's length and checksum.
type goldenTrace struct {
	firstHit map[uint32]uint64
	cycles   uint64
	checksum uint32
}

// traceGolden runs the benchmark once with tracing and records, per PC, the
// cycle count just before its first execution — the exact cycle at which a
// code-injection breakpoint on that address would fire.
func traceGolden(sys *kernel.System) (*goldenTrace, error) {
	m := sys.Machine
	m.Reboot()
	clk := m.Core().Clock()
	first := make(map[uint32]uint64, 1<<14)
	m.Core().SetTrace(func(pc uint32, cost uint8) {
		if _, ok := first[pc]; !ok {
			// Trace reports after the clock advanced past the instruction.
			first[pc] = clk.Cycles() - uint64(cost)
		}
	})
	res := m.Run()
	m.Core().SetTrace(nil)
	if res.Outcome != machine.OutCompleted {
		return nil, fmt.Errorf("campaign: traced golden run did not complete: %v", res.Outcome)
	}
	return &goldenTrace{firstHit: first, cycles: res.Cycles, checksum: res.Checksum}, nil
}

// notActivatedResult mirrors RunOne's early return for an error that was
// never injected: the run is the golden run.
func notActivatedResult(t inject.Target, cycles uint64, checksum uint32) inject.Result {
	return inject.Result{Target: t, ActivationKnown: t.Campaign != inject.CampSysReg,
		Outcome: inject.ONotActivated, RunCycles: cycles, Checksum: checksum}
}
