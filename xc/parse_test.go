package xc

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestParseRatesRejectsNonFinite(t *testing.T) {
	for _, s := range []string{"Inf", "+Inf", "-inf", "NaN", "1000,nan", "1e309", "1000, +Infinity"} {
		if r, err := ParseRates(s); err == nil {
			t.Errorf("ParseRates(%q) = %v, want an error", s, r)
		}
	}
	r, err := ParseRates("0, 1e300,250000")
	if err != nil || !slices.Equal(r, []float64{0, 1e300, 250000}) {
		t.Errorf("ParseRates = %v, %v; want [0 1e300 250000]", r, err)
	}
}

// FuzzParsers drives the CLI name and rate parsers with arbitrary
// input. None may panic; each name parser accepts its canonical
// spellings in any case, and accepts only plain names (lower-case
// letters, digits, hyphens and spaces once trimmed and folded) that map
// into its value set; an accepted kind round-trips through KindName; and
// ParseRates returns one finite rate per comma-separated part or an
// error.
func FuzzParsers(f *testing.F) {
	for _, s := range []string{
		"", " ", "docker", " X-Container ", "xen-pv", "kind-9", "ec2", "GCP", "mars",
		"binpack", "Latency-Aware", "jsq", "P2C", "wrr", "100000,200000", "1e6, 0",
		"Inf", "NaN", "-1", "1e400", "0x1p-2", ",", "1,,2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		name := strings.ToLower(strings.TrimSpace(s))
		for _, parse := range []func(string) error{
			func(s string) error { _, err := ParseKind(s); return err },
			func(s string) error { _, err := ParseCloud(s); return err },
			func(s string) error { _, err := ParsePolicy(s); return err },
			func(s string) error { _, err := ParseLB(s); return err },
		} {
			if err := parse(s); err == nil && !plainName(name) {
				t.Fatalf("%q accepted as a name", s)
			}
		}

		if k, err := ParseKind(s); err == nil {
			if !slices.Contains(Kinds(), k) {
				t.Fatalf("ParseKind(%q) = %v, not an evaluated kind", s, k)
			}
			if back, err := ParseKind(KindName(k)); err != nil || back != k {
				t.Fatalf("ParseKind(KindName(%v)) = %v, %v", k, back, err)
			}
			if up, err := ParseKind(strings.ToUpper(s)); err != nil || up != k {
				t.Fatalf("ParseKind(%q) = %v, %v; want %v", strings.ToUpper(s), up, err, k)
			}
		} else if slices.Contains(strings.Split(KindUsage(), "|"), name) {
			t.Fatalf("ParseKind(%q) rejected a canonical name: %v", s, err)
		}

		if c, err := ParseCloud(s); err == nil {
			if !slices.Contains(Clouds(), c) {
				t.Fatalf("ParseCloud(%q) = %v, not a provider profile", s, c)
			}
		} else if slices.ContainsFunc(Clouds(), func(c Cloud) bool { return CloudName(c) == name }) {
			t.Fatalf("ParseCloud(%q) rejected a canonical name: %v", s, err)
		}

		if p, err := ParsePolicy(s); err == nil {
			if !slices.Contains([]PlacementPolicy{BinPack, Spread, LatencyAware}, p) {
				t.Fatalf("ParsePolicy(%q) = %v, not a placement policy", s, p)
			}
		} else if slices.Contains(strings.Split(PolicyUsage(), "|"), name) {
			t.Fatalf("ParsePolicy(%q) rejected a canonical name: %v", s, err)
		}

		if lb, err := ParseLB(s); err == nil {
			if !slices.Contains([]LBPolicy{RoundRobin, WeightedRR, LeastQueue, PowerOfTwo}, lb) {
				t.Fatalf("ParseLB(%q) = %v, not a balancer", s, lb)
			}
		} else if slices.Contains(strings.Split(LBUsage(), "|"), name) {
			t.Fatalf("ParseLB(%q) rejected a canonical name: %v", s, err)
		}

		parts := strings.Split(s, ",")
		valid := true
		for _, p := range parts {
			r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			valid = valid && err == nil && !math.IsNaN(r) && !math.IsInf(r, 0)
		}
		rates, err := ParseRates(s)
		if (err == nil) != valid {
			t.Fatalf("ParseRates(%q) = %v, %v; each part finite: %v", s, rates, err, valid)
		}
		if err == nil && len(rates) != len(parts) {
			t.Fatalf("ParseRates(%q) = %v, want %d rates", s, rates, len(parts))
		}
		for _, r := range rates {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("ParseRates(%q) accepted the non-finite rate %v", s, r)
			}
		}
	})
}

// plainName reports whether s is a non-empty run of lower-case ASCII
// letters, digits, hyphens and spaces — the shape of every CLI name and
// paper legend name ("xen pv") the parsers take.
func plainName(s string) bool {
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' && r != ' ' {
			return false
		}
	}
	return s != ""
}
