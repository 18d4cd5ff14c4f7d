package campaign

import (
	"sort"

	"kfi/internal/inject"
	"kfi/internal/kernel"
)

// Plan is a campaign's deterministic execution plan, built once by NewPlan
// and executed by one executor whatever the entry point: RunWith, a Farm, or
// the harden study. Two plans built from identical systems for the same spec
// and options are identical: target generation is seeded and the guest is
// deterministic.
type Plan struct {
	Targets []inject.Target
	// Order lists the target indices that execute, sorted by trigger cycle
	// (the order a snapshot chain wants them in).
	Order []int
	// Pre maps target indices to the rows synthesized without execution:
	// code targets whose instruction the golden run never reaches, and data
	// targets whose word it never reads or writes. Each is exact, not a
	// prediction: by determinism the injected run is the golden run, and
	// ReplayFromBoot returns the same row.
	Pre map[int]inject.Result

	// order backs Order with the trigger cycles, so executing a subset
	// never re-traces the golden run.
	order []trigOrder
	// ready is every row complete without execution, in stream order:
	// resumed rows (already journaled), then section-cache hits, then Pre
	// rows by ascending index.
	ready []readyRow
	// synthesized counts the Pre rows in ready (those not resumed or
	// served by the section cache).
	synthesized int
	// golden is the system's shared, read-only traced golden run.
	golden *kernel.GoldenTrace
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
// targets by trigger cycle against the system's traced golden run,
// synthesize unreached rows, load section-cache hits (opts.SectionCache),
// and skip the rows opts.Completed already holds.
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
	if err := p.sortByTrigger(sys); err != nil {
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
			p.synthesized++
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
// it. Delay-triggered targets (stack, system registers) use their Delay.
// Code and data targets use the traced golden run: a code target triggers
// at the first execution of its address, a data target at the first touch
// of its word. A target the golden run never executes or touches becomes a
// synthesized not-activated row. Any other target injects at boot (trigger
// 0). The trace is the system's (System.GoldenTrace): NewGuest traced it
// when it built the system, and a system built any other way traces it for
// its first plan; every later plan on the sealed image reads the same one.
//
// Forking a data row at its first touch is exact. Up to that cycle nothing
// has read or written the word, so a from-boot run with the bit flipped is
// the golden run plus the flip; flipping at the pause instead reaches the
// same state. RunFrom then arms the watchpoint as it would at boot, and the
// access that fires it is the same one.
func (p *Plan) sortByTrigger(sys *kernel.System) error {
	var err error
	if p.golden, err = sys.GoldenTrace(); err != nil {
		return err
	}
	p.order = make([]trigOrder, 0, len(p.Targets))
	for i, t := range p.Targets {
		var (
			trig    uint64
			reached = true
		)
		switch {
		case t.Delay > 0:
			trig = t.Delay
		case t.Campaign == inject.CampCode:
			trig, reached = p.golden.FirstHit(t.Addr)
		case t.Campaign == inject.CampData:
			trig, reached = p.golden.FirstTouch(t.Addr)
		}
		if !reached {
			p.Pre[i] = notActivatedResult(t, p.golden.Cycles(), p.golden.Checksum())
			continue
		}
		p.order = append(p.order, trigOrder{trig, i})
	}
	sort.SliceStable(p.order, func(a, b int) bool { return p.order[a].trig < p.order[b].trig })
	return nil
}

// execute completes every row of the plan on ex, writing each into out
// before calling done: first the ready rows in stream order, then the
// executed rows in trigger order. This fixes the journal's append order for
// single-node runs, so two identical runs write identical bytes.
func (p *Plan) execute(ex *executor, out []inject.Result, done func(idx int, journal bool) error) error {
	for _, r := range p.ready {
		out[r.idx] = r.res
		if err := done(r.idx, r.journal); err != nil {
			return err
		}
	}
	return ex.run(p, p.order, out, func(idx int) error { return done(idx, true) })
}

// notActivatedResult mirrors RunOne's early return for an error that was
// never injected: the run is the golden run.
func notActivatedResult(t inject.Target, cycles uint64, checksum uint32) inject.Result {
	return inject.Result{Target: t, ActivationKnown: t.Campaign != inject.CampSysReg,
		Outcome: inject.ONotActivated, RunCycles: cycles, Checksum: checksum}
}
