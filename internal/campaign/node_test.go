package campaign

import (
	"bytes"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
)

// TestNodeRunnerMatchesFarm: arbitrary index subsets executed through a
// NodeRunner — across several RunIndices calls, in non-ascending order —
// produce exactly the farm's outcome table for the same spec, and the
// canonical journal bytes assembled from those rows equal the farm's. This
// is the equivalence the distributed control plane leans on: leased chunks
// are just index subsets, and any worker's rows are interchangeable with
// any other execution of the spec.
func TestNodeRunnerMatchesFarm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	spec := Spec{Campaign: inject.CampData, N: 18, Seed: 9}

	farm, err := NewFarm(isa.CISC, 3, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	farmRes, err := farm.Run(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	nr, err := NewNodeRunner(isa.CISC, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Close()
	if nr.Golden() != farm.Golden() {
		t.Fatalf("node golden 0x%x != farm golden 0x%x", nr.Golden(), farm.Golden())
	}
	plan, err := nr.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Targets) != spec.N {
		t.Fatalf("plan has %d targets, want %d", len(plan.Targets), spec.N)
	}

	// Split the index space into three interleaved subsets (idx mod 3) and
	// run them as separate leases. The second and third subsets contain
	// triggers earlier than ones already executed, forcing the snapshot
	// chain to restart rather than advance — the requeued-chunk path.
	table := make(map[int]inject.Result, spec.N)
	for residue := 0; residue < 3; residue++ {
		var subset []int
		for i := 0; i < spec.N; i++ {
			if i%3 == residue {
				subset = append(subset, i)
			}
		}
		err := nr.RunIndices(plan, subset, ExecOptions{}, func(idx int, r inject.Result) error {
			if _, dup := table[idx]; dup {
				t.Errorf("idx %d delivered twice", idx)
			}
			table[idx] = r
			return nil
		})
		if err != nil {
			t.Fatalf("subset %d: %v", residue, err)
		}
	}
	if len(table) != spec.N {
		t.Fatalf("node runs produced %d rows, want %d", len(table), spec.N)
	}
	for i, want := range farmRes.Results {
		if table[i] != want {
			t.Errorf("idx %d: node %+v, farm %+v", i, table[i], want)
		}
	}

	// Canonical journal bytes from the interleaved node rows equal the
	// farm's — the byte-identity the coordinator asserts at finalize.
	farmTable := make(map[int]inject.Result, len(farmRes.Results))
	for i, r := range farmRes.Results {
		farmTable[i] = r
	}
	h := HeaderFor(isa.CISC, farm.Golden(), spec)
	wantBytes, err := CanonicalJournalBytes(h, farmTable)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := CanonicalJournalBytes(HeaderFor(isa.CISC, nr.Golden(), spec), table)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, wantBytes) {
		t.Errorf("canonical journal bytes differ: node %d bytes, farm %d bytes", len(gotBytes), len(wantBytes))
	}
}

// TestNodeRunnerPlanReuseAndErrors: a plan is reusable across calls, pre-set
// indices are served without execution, and out-of-range indices are
// rejected before any work happens.
func TestNodeRunnerPlanReuseAndErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	nr, err := NewNodeRunner(isa.CISC, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Close()
	spec := Spec{Campaign: inject.CampStack, N: 6, Seed: 3}
	plan, err := nr.Plan(spec)
	if err != nil {
		t.Fatal(err)
	}

	if err := nr.RunIndices(plan, []int{spec.N}, ExecOptions{}, func(int, inject.Result) error {
		t.Fatal("callback ran for an out-of-range index")
		return nil
	}); err == nil {
		t.Fatal("RunIndices accepted an out-of-range index")
	}
	if err := nr.RunIndices(plan, []int{-1}, ExecOptions{}, nil); err == nil {
		t.Fatal("RunIndices accepted a negative index")
	}

	// Running the same single index twice across separate calls yields the
	// same result both times (deterministic replay from the chain).
	var first, second inject.Result
	if err := nr.RunIndices(plan, []int{2}, ExecOptions{}, func(_ int, r inject.Result) error {
		first = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := nr.RunIndices(plan, []int{2}, ExecOptions{}, func(_ int, r inject.Result) error {
		second = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("re-running idx 2 changed the result: %+v vs %+v", first, second)
	}
}

// TestNodeRunnerExecutorFollowsOptions: RunIndices keeps its executor, and
// with it the snapshot chain, across calls with the same supervision policy
// and rebuilds it when the policy changes, so a later call never runs under
// an earlier call's MaxAttempts.
func TestNodeRunnerExecutorFollowsOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs injections")
	}
	nr, err := NewNodeRunner(isa.CISC, 1, kernel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer nr.Close()
	plan, err := nr.Plan(Spec{Campaign: inject.CampStack, N: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(want []int, opts ExecOptions) *executor {
		t.Helper()
		if err := nr.RunIndices(plan, want, opts, func(int, inject.Result) error { return nil }); err != nil {
			t.Fatal(err)
		}
		return nr.ex
	}
	first := run([]int{0, 1}, ExecOptions{MaxAttempts: 1})
	if got := first.sup.maxAttempts; got != 1 {
		t.Fatalf("first call runs with %d attempts, want 1", got)
	}
	if again := run([]int{2, 3}, ExecOptions{MaxAttempts: 1}); again != first {
		t.Error("executor rebuilt although the options did not change")
	}
	if later := run([]int{4, 5}, ExecOptions{MaxAttempts: 5}); later == first || later.sup.maxAttempts != 5 {
		t.Errorf("MaxAttempts 5 ran under the first call's policy (%d attempts)", later.sup.maxAttempts)
	}
}
