package mem_test

import (
	"testing"

	"kfi/internal/campaign"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/mem"
)

// TestGuestPageCount pins how many RAM pages a built guest allocates. Guest
// RAM is page-sparse: only pages the loader or the guest has written are
// backed, and restores and reboots clear pages in place without allocating
// the rest. The bounds are twice the counts measured when the table became
// sparse (a dense RAM held all 1,024 pages), so a restore or reboot that
// touches every page fails here.
func TestGuestPageCount(t *testing.T) {
	for _, c := range []struct {
		platform isa.Platform
		built    int // bound after campaign.NewGuest
		ran      int // bound after a 20-row stack campaign
	}{
		{isa.CISC, 2 * 25, 2 * 25},
		{isa.RISC, 2 * 36, 2 * 36},
	} {
		t.Run(c.platform.String(), func(t *testing.T) {
			g, err := campaign.NewGuest(c.platform, 1, kernel.Options{})
			if err != nil {
				t.Fatal(err)
			}
			m := g.Sys.Machine.Mem
			total := int(m.Size() / mem.PageSize)
			n := m.AllocatedPages()
			t.Logf("after NewGuest: %d of %d pages allocated", n, total)
			if n > c.built {
				t.Errorf("after NewGuest: %d pages allocated, want <= %d", n, c.built)
			}
			spec := campaign.Spec{Campaign: inject.CampStack, N: 20, Seed: 1}
			if _, err := campaign.RunWith(g.Sys, g.Golden, g.Profile, spec, nil, campaign.ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			n = m.AllocatedPages()
			t.Logf("after a 20-row stack campaign: %d of %d pages allocated", n, total)
			if n > c.ran {
				t.Errorf("after a 20-row stack campaign: %d pages allocated, want <= %d", n, c.ran)
			}
		})
	}
}
