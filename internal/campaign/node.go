package campaign

import (
	"fmt"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
)

// NodeRunner is the exported per-node execution seam: one guest system with
// its golden checksum and kernel profile, able to plan a campaign and
// execute arbitrary subsets of its targets. It feeds the same executor a
// Farm runs, packaged for out-of-process schedulers — the internal/ctlplane
// worker agent runs leased chunks through a NodeRunner, so a distributed
// campaign's per-index results are identical to an in-process run of the
// same spec.
type NodeRunner struct {
	guest *Guest
	// ex keeps its snapshot chain across successive RunIndices calls
	// against the same plan — the chain advances forward as long as leases
	// arrive in ascending trigger order, and restarts itself for requeued
	// earlier triggers.
	ex *executor
}

// NewNodeRunner builds one guest system of the given platform and workload
// scale and traces its golden run (NewGuest).
func NewNodeRunner(platform isa.Platform, scale int, opts kernel.Options) (*NodeRunner, error) {
	g, err := NewGuest(platform, scale, opts)
	if err != nil {
		return nil, err
	}
	return &NodeRunner{guest: g}, nil
}

// Platform returns the node's platform.
func (nr *NodeRunner) Platform() isa.Platform { return nr.guest.Sys.Platform }

// Golden returns the fault-free benchmark checksum.
func (nr *NodeRunner) Golden() uint32 { return nr.guest.Golden }

// Profile returns the measured kernel-usage profile.
func (nr *NodeRunner) Profile() *Profile { return nr.guest.Profile }

// Plan builds the spec's plan with default options. Its traced golden run is
// the system's, traced when NewNodeRunner built the node (or, after a
// respawn, by the first plan on the replacement); every later plan and
// every RunIndices call reuses it.
func (nr *NodeRunner) Plan(spec Spec) (*Plan, error) {
	return NewPlan(nr.guest.Sys, nr.guest.Golden, nr.guest.Profile, spec, nil, ExecOptions{})
}

// RunIndices executes the plan's targets whose indices appear in want,
// calling each with every completed result: first the plan's synthesized
// rows (by ascending index), then executed rows in the plan's trigger order
// regardless of the order of want, so the node's snapshot chain only ever
// advances forward. Results are identical to the same indices executed by
// RunWith, a Farm, or any other NodeRunner.
func (nr *NodeRunner) RunIndices(plan *Plan, want []int, opts ExecOptions,
	each func(idx int, res inject.Result) error) error {
	wanted := make(map[int]bool, len(want))
	for _, i := range want {
		if i < 0 || i >= len(plan.Targets) {
			return fmt.Errorf("campaign: index %d outside plan of %d targets", i, len(plan.Targets))
		}
		wanted[i] = true
	}
	// The executor fixes its supervision policy when built: keep it (and
	// its snapshot chain) only while the options ask for the same policy.
	if nr.ex == nil || nr.ex.sup != opts.supervision() {
		nr.Close()
		nr.ex = newExecutor([]*kernel.System{nr.guest.Sys}, nr.guest.Golden, opts,
			nr.guest.Build, execHooks{})
	}
	out := make([]inject.Result, len(plan.Targets))
	err := plan.execute(nr.ex, func(idx int) bool { return wanted[idx] }, out,
		func(idx int, _ bool) error { return each(idx, out[idx]) })
	// A watchdog respawn may have replaced the node's system; plan on the
	// live one from now on.
	nr.guest.Sys = nr.ex.runners[0].st.sys
	return err
}

// Close releases the node's snapshot-chain state. The NodeRunner remains
// usable; the next RunIndices starts a fresh chain.
func (nr *NodeRunner) Close() {
	if nr.ex != nil {
		nr.ex.close()
		nr.ex = nil
	}
}
