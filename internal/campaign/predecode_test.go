package campaign

import (
	"reflect"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/platform"
)

// TestEngineCampaignEquivalence pins the execution engines' end-to-end
// contract: full campaigns — including code-corruption injections that flip
// bits inside already-cached or already-translated pages — produce
// per-injection results that are bit-identical on every engine the platform
// supports, on both platforms.
func TestEngineCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("campaigns are slow")
	}
	for _, plat := range []isa.Platform{isa.CISC, isa.RISC} {
		sys, golden, prof := getSystem(t, plat)
		desc := sys.Machine.Descriptor()
		for _, camp := range []inject.Campaign{inject.CampCode, inject.CampStack, inject.CampData} {
			t.Run(plat.Short()+"/"+camp.String(), func(t *testing.T) {
				spec := Spec{Campaign: camp, N: 10, Seed: 77}
				ref, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if def := platform.DefaultEngine(desc); ref.Engine != def {
					t.Fatalf("default campaign ran on %v, want %v", ref.Engine, def)
				}
				for _, kind := range desc.Engines() {
					if kind == platform.DefaultEngine(desc) {
						continue
					}
					got, err := RunWith(sys, golden, prof, spec, nil, ExecOptions{Engine: kind})
					if err != nil {
						t.Fatal(err)
					}
					if got.Engine != kind {
						t.Fatalf("campaign ran on %v, want %v", got.Engine, kind)
					}
					for i := range ref.Results {
						if !reflect.DeepEqual(ref.Results[i], got.Results[i]) {
							t.Errorf("%v: injection %d diverges:\n  default: %+v\n  %v: %+v",
								kind, i, ref.Results[i], kind, got.Results[i])
						}
					}
				}
			})
		}
	}
}
