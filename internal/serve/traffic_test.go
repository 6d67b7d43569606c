package serve

import (
	"strings"
	"testing"
)

// canonicalTraffic are valid specs already in canonical form.
var canonicalTraffic = []string{
	"poisson:r120:n2000",
	"poisson:r120:n2000:seed7",
	"poisson:r120:n2000:seed7:crit0.25",
	"diurnal:r120:a0.5:p60:n2000",
	"bursty:r60:x4:on2:off8:n2000:crit0.1",
	"closed:u64:t0.05:n2000:seed3",
}

// badTraffic are specs ParseTraffic must reject.
var badTraffic = []string{
	"",
	"warp:r10:n5",
	"poisson:r10",
	"poisson:rX:n5",
	"poisson:r10:n0",
	"poisson:r0:n5",
	"poisson:r10:n5:bogus1",
	"poisson:r10:n5:seedX",
	"poisson:r10:n5:crit1.5",
	"diurnal:r10:a1.5:p60:n5",
	"diurnal:r10:a0.5:p0:n5",
	"bursty:r10:x1:on2:off8:n5",
	"bursty:r10:x4:on0:off8:n5",
	"closed:u0:t0.1:n5",
	"closed:u4:t-1:n5",
}

func TestParseTrafficRoundTrip(t *testing.T) {
	for _, spec := range canonicalTraffic {
		tr, err := ParseTraffic(spec)
		if err != nil {
			t.Fatalf("ParseTraffic(%q): %v", spec, err)
		}
		if got := tr.String(); got != spec {
			t.Errorf("round trip %q -> %q", spec, got)
		}
		again, err := ParseTraffic(tr.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", tr.String(), err)
		}
		if *again != *tr {
			t.Errorf("reparse of %q differs: %+v vs %+v", spec, again, tr)
		}
	}
}

func TestParseTrafficErrors(t *testing.T) {
	for _, spec := range badTraffic {
		if _, err := ParseTraffic(spec); err == nil {
			t.Errorf("ParseTraffic(%q) accepted", spec)
		}
	}
}

// FuzzParseTraffic feeds arbitrary specs to ParseTraffic: it must never
// panic, and any spec it accepts must render to a canonical form that parses
// again to the same rendering.
func FuzzParseTraffic(f *testing.F) {
	for _, spec := range append(append([]string{}, canonicalTraffic...), badTraffic...) {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tr, err := ParseTraffic(spec)
		if err != nil {
			return
		}
		canon := tr.String()
		again, err := ParseTraffic(canon)
		if err != nil {
			t.Fatalf("ParseTraffic(%q) accepted, but its rendering %q is rejected: %v", spec, canon, err)
		}
		if got := again.String(); got != canon {
			t.Fatalf("ParseTraffic(%q): canonical form unstable: %q then %q", spec, canon, got)
		}
	})
}

func TestArrivalsShape(t *testing.T) {
	for _, spec := range []string{
		"poisson:r100:n500",
		"diurnal:r100:a0.8:p5:n500",
		"bursty:r50:x5:on1:off4:n500",
	} {
		tr, err := ParseTraffic(spec)
		if err != nil {
			t.Fatal(err)
		}
		arr := tr.Arrivals()
		if len(arr) != tr.N {
			t.Fatalf("%s: %d arrivals, want %d", spec, len(arr), tr.N)
		}
		last := 0.0
		for i, a := range arr {
			if a.At < last {
				t.Fatalf("%s: arrival %d at %g before predecessor %g", spec, i, a.At, last)
			}
			last = a.At
			if a.Critical {
				t.Fatalf("%s: critical request without crit fraction", spec)
			}
		}
	}
}

func TestArrivalsCriticalFractionIsolated(t *testing.T) {
	base, err := ParseTraffic("poisson:r100:n2000")
	if err != nil {
		t.Fatal(err)
	}
	crit, err := ParseTraffic("poisson:r100:n2000:crit0.3")
	if err != nil {
		t.Fatal(err)
	}
	a, b := base.Arrivals(), crit.Arrivals()
	marked := 0
	for i := range a {
		if a[i].At != b[i].At {
			t.Fatalf("crit fraction perturbed arrival %d: %g vs %g", i, a[i].At, b[i].At)
		}
		if b[i].Critical {
			marked++
		}
	}
	frac := float64(marked) / float64(len(b))
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("critical fraction %g far from requested 0.3", frac)
	}
}

func TestArrivalsMeanRate(t *testing.T) {
	tr, err := ParseTraffic("poisson:r200:n4000")
	if err != nil {
		t.Fatal(err)
	}
	arr := tr.Arrivals()
	span := arr[len(arr)-1].At
	rate := float64(len(arr)) / span
	if rate < 180 || rate > 220 {
		t.Errorf("empirical rate %g far from offered 200", rate)
	}
}

func TestWithRate(t *testing.T) {
	tr, err := ParseTraffic("poisson:r100:n50:seed9")
	if err != nil {
		t.Fatal(err)
	}
	faster := tr.WithRate(400)
	if faster.Rate != 400 || faster.N != 50 || faster.Seed != 9 {
		t.Errorf("WithRate lost fields: %+v", faster)
	}
	if tr.Rate != 100 {
		t.Errorf("WithRate mutated the receiver")
	}
	closed, err := ParseTraffic("closed:u4:t0.1:n20")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("WithRate on closed-loop traffic did not panic")
		}
	}()
	closed.WithRate(10)
}

func TestUserStreamPerUserIndependence(t *testing.T) {
	tr, err := ParseTraffic("closed:u4:t0.1:n40:crit0.5")
	if err != nil {
		t.Fatal(err)
	}
	draw := func(u, n int) []float64 {
		rng := tr.userStream(u)
		out := make([]float64, 0, 2*n)
		for i := 0; i < n; i++ {
			th := rng.ExpFloat64() * tr.Think
			if th < 0 {
				t.Fatalf("negative think time for user %d", u)
			}
			out = append(out, th, rng.Float64())
		}
		return out
	}
	// The stream is a pure function of (seed, user): re-seeding replays it.
	a, b := draw(0, 32), draw(0, 32)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("user stream not deterministic at draw %d", i)
		}
	}
	// Distinct users draw distinct streams.
	c := draw(1, 32)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("users 0 and 1 share a think stream")
	}
}

func TestTrafficStringMentionsKind(t *testing.T) {
	tr, err := ParseTraffic("bursty:r60:x4:on2:off8:n100")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(tr.String(), "bursty:") {
		t.Errorf("canonical form %q lost its kind", tr.String())
	}
}
