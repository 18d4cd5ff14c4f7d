// Package cli holds small helpers shared by the kfi command-line tools: the
// -platform and -campaign flag parsing (resolved through the platform
// registry so every tool accepts the same names and prints the same error
// for an unknown one), and kfi-monitor's -listen address parsing.
package cli

import (
	"fmt"
	"net"
	"strings"

	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/platform"

	// Every CLI resolves platforms by name, so importing this package pulls
	// in the built-in registrations.
	_ "kfi/internal/platform/all"
)

// shortNames returns the primary (isa Short) names of every registered
// platform, in registry order — "p4, g4" today — for error messages.
func shortNames() string {
	var out []string
	for _, d := range platform.All() {
		out = append(out, d.ID().Short())
	}
	return strings.Join(out, ", ")
}

// ParsePlatform resolves a single-platform flag value ("p4", "g4", or any
// registered alias, case-insensitively).
func ParsePlatform(s string) (isa.Platform, error) {
	if d, ok := platform.ByName(s); ok {
		return d.ID(), nil
	}
	return 0, fmt.Errorf("unknown platform %q (want %s)", s, shortNames())
}

// ParsePlatforms resolves a multi-platform flag value: a registered name or
// alias selects that platform; "both" or "all" selects every registered
// platform in registry order.
func ParsePlatforms(s string) ([]isa.Platform, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "both", "all":
		var out []isa.Platform
		for _, d := range platform.All() {
			out = append(out, d.ID())
		}
		return out, nil
	}
	if d, ok := platform.ByName(s); ok {
		return []isa.Platform{d.ID()}, nil
	}
	return nil, fmt.Errorf("unknown platform %q (want %s, or both)", s, shortNames())
}

// ParseCampaign resolves a single campaign name.
func ParseCampaign(s string) (inject.Campaign, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "stack":
		return inject.CampStack, nil
	case "sysreg", "registers", "regs", "system-registers":
		return inject.CampSysReg, nil
	case "data":
		return inject.CampData, nil
	case "code":
		return inject.CampCode, nil
	}
	return 0, fmt.Errorf("unknown campaign %q (want stack, sysreg, data, or code)", s)
}

// ParseCampaigns resolves a -campaign flag value: a comma-separated list of
// campaign names, or "all" for the four campaigns in the paper's table order.
func ParseCampaigns(s string) ([]inject.Campaign, error) {
	if strings.EqualFold(strings.TrimSpace(s), "all") {
		return []inject.Campaign{inject.CampStack, inject.CampSysReg,
			inject.CampData, inject.CampCode}, nil
	}
	var out []inject.Campaign
	for _, part := range strings.Split(s, ",") {
		c, err := ParseCampaign(part)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ParseListenAddr validates a -listen flag value: a host:port (the host may
// be empty for all interfaces, the port may be 0 for an ephemeral one).
func ParseListenAddr(s string) (string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return "", fmt.Errorf("empty listen address (want host:port)")
	}
	if strings.Contains(s, "://") {
		return "", fmt.Errorf("listen address %q must be host:port, not a URL", s)
	}
	_, port, err := net.SplitHostPort(s)
	if err != nil {
		return "", fmt.Errorf("invalid listen address %q (want host:port): %v", s, err)
	}
	if port == "" {
		return "", fmt.Errorf("listen address %q is missing a port", s)
	}
	return s, nil
}
