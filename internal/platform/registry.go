package platform

import (
	"fmt"
	"sort"
	"strings"

	"kfi/internal/isa"
)

var (
	descriptors = map[isa.Platform]Descriptor{}
	byName      = map[string]Descriptor{}
)

// Register adds a platform descriptor to the registry. It panics on nil or
// zero-ID descriptors, duplicate registrations, name collisions, or a
// descriptor whose isa.PlatformInfo has not been registered first —
// registration bugs must fail at init time with a message naming the
// offender, not surface later as a missing capability.
func Register(d Descriptor) {
	if d == nil {
		panic("platform: Register(nil)")
	}
	p := d.ID()
	if p == 0 {
		panic("platform: Register with zero isa.Platform ID")
	}
	if !isa.Registered(p) {
		panic(fmt.Sprintf("platform: descriptor %d registered before its isa.PlatformInfo (call isa.RegisterPlatform first)", int(p)))
	}
	if _, ok := descriptors[p]; ok {
		panic(fmt.Sprintf("platform: duplicate descriptor for %v", p))
	}
	names := append([]string{p.Short()}, d.Aliases()...)
	for _, n := range names {
		n = strings.ToLower(n)
		if n == "" {
			panic(fmt.Sprintf("platform: %v registers an empty name", p))
		}
		if prev, ok := byName[n]; ok {
			panic(fmt.Sprintf("platform: name %q claimed by both %v and %v", n, prev.ID(), p))
		}
	}
	descriptors[p] = d
	for _, n := range names {
		byName[strings.ToLower(n)] = d
	}
}

// Find returns the descriptor for p, if registered.
func Find(p isa.Platform) (Descriptor, bool) {
	d, ok := descriptors[p]
	return d, ok
}

// MustGet returns the descriptor for p, panicking with a clear message when
// the platform was never registered (a wiring bug, not a runtime condition).
func MustGet(p isa.Platform) Descriptor {
	d, ok := descriptors[p]
	if !ok {
		panic(fmt.Sprintf("platform: no descriptor registered for %v (missing import of the platform package?)", p))
	}
	return d
}

// ByName resolves a platform by its isa Short tag or one of its aliases,
// case-insensitively ("p4", "cisc", "g4", "ppc", ...).
func ByName(name string) (Descriptor, bool) {
	d, ok := byName[strings.ToLower(strings.TrimSpace(name))]
	return d, ok
}

// All returns every registered descriptor, ordered by platform ID.
func All() []Descriptor {
	out := make([]Descriptor, 0, len(descriptors))
	for _, d := range descriptors {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// Names returns every registered lookup name, sorted (for error messages).
func Names() []string {
	out := make([]string, 0, len(byName))
	for n := range byName {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
