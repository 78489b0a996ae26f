package chaos

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

const fullPlan = "crash@0.25,count=3; gray@0.3+0.2,cost=4,err=0.05,version=2; " +
	"partition@0.4+0.1,frac=0.5; restart@0.5,count=2,recovery=0.02; " +
	"probes,interval=0.002,timeout-us=800,unhealthy=4,healthy=2"

func TestParseFullPlan(t *testing.T) {
	p, err := Parse(fullPlan)
	if err != nil {
		t.Fatal(err)
	}
	if p.Probes == nil || p.Probes.IntervalSec != 0.002 || p.Probes.TimeoutUS != 800 ||
		p.Probes.UnhealthyAfter != 4 || p.Probes.HealthyAfter != 2 {
		t.Fatalf("probes = %+v", p.Probes)
	}
	if len(p.Faults) != 4 {
		t.Fatalf("faults = %d", len(p.Faults))
	}
	f := p.Faults[0]
	if f.Kind != KindCrash || f.AtSec != 0.25 || f.Count != 3 {
		t.Fatalf("crash = %+v", f)
	}
	f = p.Faults[1]
	if f.Kind != KindGray || f.AtSec != 0.3 || f.DurationSec != 0.2 ||
		f.CostFactor != 4 || f.ErrorRate != 0.05 || f.Version != 2 {
		t.Fatalf("gray = %+v", f)
	}
	f = p.Faults[2]
	if f.Kind != KindPartition || f.Frac != 0.5 || f.DurationSec != 0.1 {
		t.Fatalf("partition = %+v", f)
	}
	f = p.Faults[3]
	if f.Kind != KindRestart || f.Count != 2 || f.RecoverySec != 0.02 {
		t.Fatalf("restart = %+v", f)
	}
}

func TestParseSortsByTime(t *testing.T) {
	p, err := Parse("restart@0.5;crash@0.1;gray@0.3+0.1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Faults[0].Kind != KindCrash || p.Faults[1].Kind != KindGray || p.Faults[2].Kind != KindRestart {
		t.Fatalf("order = %v %v %v", p.Faults[0].Kind, p.Faults[1].Kind, p.Faults[2].Kind)
	}
}

func TestParseDefaults(t *testing.T) {
	p, err := Parse("gray@0.1+0.2;probes")
	if err != nil {
		t.Fatal(err)
	}
	f := p.Faults[0]
	if f.CostFactor != 4 || f.Count != 1 {
		t.Fatalf("gray defaults = %+v", f)
	}
	pr := p.Probes
	if pr.IntervalSec != 0.005 || pr.UnhealthyAfter != 3 || pr.HealthyAfter != 2 {
		t.Fatalf("probe defaults = %+v", pr)
	}
}

// badPlans are plans Parse must reject; FuzzChaosParse seeds from them.
var badPlans = []string{
	"", "bogus@0.1", "crash", "crash@x", "gray@0.1", // gray needs a duration
	"gray@0.1+0.2,err=1.5", "partition@0.1+0.2,frac=2",
	"crash@0.1,nope=3", "probes,interval=-1", "restart@0.1,recovery=-1",
	// NaN passes every range check; ±Inf is no time or factor.
	"gray@NaN+0.1", "gray@0.1+NaN", "gray@0.1+0.2,cost=NaN", "crash@Inf",
	"partition@0.1+0.1,frac=NaN", "probes,interval=Inf", "restart@0.1,recovery=+Inf",
}

func TestParseErrors(t *testing.T) {
	for _, s := range badPlans {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

func TestNormalizeValidates(t *testing.T) {
	p := &Plan{Faults: []Fault{{Kind: KindGray, AtSec: 0.1}}}
	if err := p.Normalize(); err == nil || !strings.Contains(err.Error(), "duration") {
		t.Fatalf("err = %v", err)
	}
	p = &Plan{Faults: []Fault{{Kind: KindCrash, AtSec: -1}}}
	if err := p.Normalize(); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestVictims(t *testing.T) {
	f := Fault{Kind: KindPartition, Frac: 0.5}
	if got := f.Victims(5); got != 3 {
		t.Fatalf("frac victims = %d", got)
	}
	f = Fault{Kind: KindPartition, Count: 10}
	if got := f.Victims(4); got != 4 {
		t.Fatalf("capped victims = %d", got)
	}
}

// FuzzChaosParse checks that Parse never panics, is deterministic, and
// only accepts plans the engines can run: finite floats, a timeline
// sorted by injection time, and defaults that a second Normalize
// leaves alone.
func FuzzChaosParse(f *testing.F) {
	for _, s := range append([]string{fullPlan, "restart@0.5;crash@0.1;gray@0.3+0.1", "gray@0.1+0.2;probes"}, badPlans...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		q, err2 := Parse(s)
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(p, q) {
			t.Fatalf("Parse(%q) differs between runs: %+v (%v) vs %+v (%v)", s, p, err, q, err2)
		}
		if err != nil {
			return
		}
		if pr := p.Probes; pr != nil && !finite(pr.IntervalSec, pr.TimeoutUS) {
			t.Fatalf("Parse(%q) accepted non-finite probes %+v", s, *pr)
		}
		for i, ft := range p.Faults {
			if !finite(ft.AtSec, ft.DurationSec, ft.Frac, ft.CostFactor, ft.ErrorRate, ft.RecoverySec) {
				t.Fatalf("Parse(%q) accepted non-finite fault %+v", s, ft)
			}
			if i > 0 && ft.AtSec < p.Faults[i-1].AtSec {
				t.Fatalf("Parse(%q) timeline out of order: %+v", s, p.Faults)
			}
		}
		again := *p
		if p.Probes != nil {
			pr := *p.Probes
			again.Probes = &pr
		}
		again.Faults = slices.Clone(p.Faults)
		if err := again.Normalize(); err != nil || !reflect.DeepEqual(&again, p) {
			t.Fatalf("Parse(%q): second Normalize changed the plan: %+v -> %+v (%v)", s, p, &again, err)
		}
	})
}
