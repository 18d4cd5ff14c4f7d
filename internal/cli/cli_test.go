package cli

import (
	"reflect"
	"strings"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
)

func TestParsePlatform(t *testing.T) {
	cases := []struct {
		in      string
		want    isa.Platform
		wantErr bool
	}{
		{in: "p4", want: isa.CISC},
		{in: "g4", want: isa.RISC},
		{in: "P4", want: isa.CISC},
		{in: "cisc", want: isa.CISC},
		{in: "ppc", want: isa.RISC},
		{in: " g4 ", want: isa.RISC},
		{in: "pentium", wantErr: true},
		{in: "both", wantErr: true}, // single-platform flags reject "both"
		{in: "", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParsePlatform(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParsePlatform(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlatform(%q): %v", tc.in, err)
		} else if got != tc.want {
			t.Errorf("ParsePlatform(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParsePlatforms(t *testing.T) {
	both := []isa.Platform{isa.CISC, isa.RISC}
	cases := []struct {
		in      string
		want    []isa.Platform
		wantErr bool
	}{
		{in: "p4", want: []isa.Platform{isa.CISC}},
		{in: "g4", want: []isa.Platform{isa.RISC}},
		{in: "risc", want: []isa.Platform{isa.RISC}},
		{in: "both", want: both},
		{in: "all", want: both},
		{in: "BOTH", want: both},
		{in: "vax", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParsePlatforms(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParsePlatforms(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePlatforms(%q): %v", tc.in, err)
			continue
		}
		// The built-in platforms must appear, in registry order, possibly
		// alongside extension platforms registered by other tests.
		if tc.in == "both" || tc.in == "all" || tc.in == "BOTH" {
			var builtins []isa.Platform
			for _, p := range got {
				if p == isa.CISC || p == isa.RISC {
					builtins = append(builtins, p)
				}
			}
			if !reflect.DeepEqual(builtins, both) {
				t.Errorf("ParsePlatforms(%q) = %v, want both builtins in order", tc.in, got)
			}
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParsePlatforms(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestUnknownPlatformErrorText(t *testing.T) {
	_, err := ParsePlatforms("vax")
	if err == nil {
		t.Fatal("want error")
	}
	got := err.Error()
	for _, want := range []string{`unknown platform "vax"`, "p4", "g4", "both"} {
		if !strings.Contains(got, want) {
			t.Errorf("error %q does not mention %q", got, want)
		}
	}
}

func TestParseCampaign(t *testing.T) {
	cases := []struct {
		in      string
		want    inject.Campaign
		wantErr bool
	}{
		{in: "stack", want: inject.CampStack},
		{in: "Stack", want: inject.CampStack},
		{in: " sysreg ", want: inject.CampSysReg},
		{in: "registers", want: inject.CampSysReg},
		{in: "regs", want: inject.CampSysReg},
		{in: "system-registers", want: inject.CampSysReg},
		{in: "data", want: inject.CampData},
		{in: "CODE", want: inject.CampCode},
		{in: "paging", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseCampaign(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseCampaign(%q) = %v, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseCampaign(%q) = %v, %v, want %v", c.in, got, err, c.want)
		}
	}
}

func TestParseListenAddr(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr bool
	}{
		{in: "127.0.0.1:9380", want: "127.0.0.1:9380"},
		{in: ":9380", want: ":9380"},
		{in: "localhost:0", want: "localhost:0"},
		{in: "[::1]:9380", want: "[::1]:9380"},
		{in: "", wantErr: true},
		{in: "127.0.0.1", wantErr: true},             // no port
		{in: "http://127.0.0.1:9380", wantErr: true}, // URL, not host:port
		{in: "host:port:extra", wantErr: true},
	}
	for _, c := range cases {
		got, err := ParseListenAddr(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseListenAddr(%q) = %q, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseListenAddr(%q) = %q, %v, want %q", c.in, got, err, c.want)
		}
	}
}
