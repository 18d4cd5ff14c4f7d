package campaign

import (
	"reflect"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/platform"
)

// TestEngineCampaignEquivalence pins the translator's end-to-end contract:
// full campaigns — including code-corruption injections that flip bits
// inside already-translated pages — produce per-injection results that are
// bit-identical on the translator every campaign runs on and on the
// reference interpreter, on both platforms.
func TestEngineCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	for _, plat := range []isa.Platform{isa.CISC, isa.RISC} {
		sys, golden, prof := getSystem(t, plat)
		m := sys.Machine
		for _, camp := range []inject.Campaign{inject.CampCode, inject.CampStack, inject.CampData} {
			t.Run(plat.Short()+"/"+camp.String(), func(t *testing.T) {
				spec := Spec{Campaign: camp, N: 10, Seed: 77}
				ref, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if ref.Executed > 0 && ref.EngineStats.Zero() {
					t.Fatalf("default campaign executed %d rows without translator counters", ref.Executed)
				}
				if err := m.SetEngine(platform.EngineInterp); err != nil {
					t.Fatal(err)
				}
				defer m.SetEngine(0)
				got, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !got.EngineStats.Zero() {
					t.Fatalf("interpreter run reports translator counters %+v", got.EngineStats)
				}
				for i := range ref.Results {
					if !reflect.DeepEqual(ref.Results[i], got.Results[i]) {
						t.Errorf("injection %d diverges:\n  translate: %+v\n  interp:    %+v",
							i, ref.Results[i], got.Results[i])
					}
				}
			})
		}
	}
}
