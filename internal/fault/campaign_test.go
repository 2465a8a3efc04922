package fault

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestCampaignDeterministicAndWellFormed(t *testing.T) {
	cfg := CampaignConfig{Blocks: 20, BlockSize: 64, RatePerIteration: 0.5, Seed: 7}
	a := Campaign(cfg)
	b := Campaign(cfg)
	if len(a) == 0 {
		t.Fatal("no scenarios at rate 0.5 over 20 iterations")
	}
	if len(a) != len(b) {
		t.Fatal("campaign not deterministic")
	}
	for i, s := range a {
		if s != b[i] {
			t.Fatal("scenario mismatch across identical seeds")
		}
		if s.Kind != Storage {
			t.Fatal("campaigns inject storage errors")
		}
		if s.Iter < 1 || s.Iter >= cfg.Blocks {
			t.Fatalf("iteration %d out of range", s.Iter)
		}
		// Target must be live factored data: column before the
		// iteration, row at or below it.
		if s.BJ >= s.Iter || s.BI < s.Iter || s.BI >= cfg.Blocks {
			t.Fatalf("target (%d,%d) invalid at iteration %d", s.BI, s.BJ, s.Iter)
		}
		if s.Row < 0 || s.Row >= cfg.BlockSize || s.Col < 0 || s.Col >= cfg.BlockSize {
			t.Fatalf("element (%d,%d) outside the block", s.Row, s.Col)
		}
		if s.Delta != DefaultDelta { // the documented default magnitude
			t.Fatalf("delta = %g", s.Delta)
		}
	}
	// Different seeds differ.
	cfg.Seed = 8
	c := Campaign(cfg)
	same := len(c) == len(a)
	if same {
		for i := range c {
			if c[i] != a[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical campaigns")
	}
}

func TestCampaignRateScaling(t *testing.T) {
	lo := Campaign(CampaignConfig{Blocks: 200, BlockSize: 8, RatePerIteration: 0.1, Seed: 1, Delta: 5})
	hi := Campaign(CampaignConfig{Blocks: 200, BlockSize: 8, RatePerIteration: 2.0, Seed: 1, Delta: 5})
	if len(hi) < 5*len(lo) {
		t.Fatalf("rate 2.0 gave %d errors vs %d at rate 0.1", len(hi), len(lo))
	}
	if lo[0].Delta != 5 {
		t.Fatal("explicit delta ignored")
	}
	if got := Campaign(CampaignConfig{Blocks: 50, BlockSize: 8, RatePerIteration: 0, Seed: 1}); len(got) != 0 {
		t.Fatal("zero rate produced errors")
	}
}

func TestPoissonMean(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const lambda = 1.5
	const trials = 20000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += poisson(rng, lambda)
	}
	mean := float64(sum) / trials
	if mean < lambda*0.95 || mean > lambda*1.05 {
		t.Fatalf("poisson mean %.3f, want ~%.1f", mean, lambda)
	}
	if poisson(rng, 0) != 0 || poisson(rng, -1) != 0 {
		t.Fatal("non-positive rates must yield zero")
	}
}

func TestLedgerWidthHelpers(t *testing.T) {
	l := NewLedger()
	l.Mark(Injection{Kind: Storage, BI: 1, BJ: 0, Row: 3})
	l.Mark(Injection{Kind: Propagated, BI: 1, BJ: 0, Row: 5, Width: 1})
	l.Mark(Injection{Kind: Propagated, BI: 1, BJ: 0, Consistent: true, Width: 4})
	if got := l.PendingWidth(1, 0); got != 4 {
		t.Fatalf("PendingWidth = %d", got)
	}
	if got := l.DetectableWidth(1, 0); got != 1 {
		t.Fatalf("DetectableWidth = %d (consistent marks must not count)", got)
	}
	if got := l.ConsistentWidth(1, 0); got != 4 {
		t.Fatalf("ConsistentWidth = %d", got)
	}
	rows, unknown := l.DetectableProfile(1, 0)
	if len(rows) != 2 || unknown != 0 {
		t.Fatalf("profile rows=%v unknown=%d", rows, unknown)
	}
	// An unknown-position smear contributes to unknown, not rows.
	l.Mark(Injection{Kind: Propagated, BI: 1, BJ: 0, Row: -1, Width: 2})
	rows, unknown = l.DetectableProfile(1, 0)
	if len(rows) != 2 || unknown != 2 {
		t.Fatalf("profile rows=%v unknown=%d after wide smear", rows, unknown)
	}
	// Duplicate rows collapse.
	l.Mark(Injection{Kind: Computation, BI: 1, BJ: 0, Row: 3})
	rows, _ = l.DetectableProfile(1, 0)
	if len(rows) != 2 {
		t.Fatalf("duplicate row not collapsed: %v", rows)
	}
	if w := l.PendingWidth(9, 9); w != 0 {
		t.Fatal("clean block has width 0")
	}
}

func TestPropagatedString(t *testing.T) {
	in := Injection{Kind: Propagated, BI: 2, BJ: 1, Iter: 5, Width: 2}
	if in.String() == "" {
		t.Fatal("empty render")
	}
}

// referenceCampaign generates a campaign the way the engine did before
// it reused one lazily seeded source: a fresh rand.NewSource per
// iteration. Campaign must match it scenario for scenario.
func referenceCampaign(cfg CampaignConfig) []Scenario {
	cfg = cfg.Normalized()
	var out []Scenario
	for j := 1; j < cfg.Blocks; j++ {
		if cfg.Class.Strike == StrikeCompute && j >= cfg.Blocks-1 {
			continue
		}
		rng := rand.New(rand.NewSource(SubSeed(cfg.Seed, j)))
		for n := poisson(rng, cfg.RatePerIteration); n > 0; n-- {
			out = strike(out, cfg, rng, j)
		}
	}
	return out
}

func TestCampaignMatchesStdlibReference(t *testing.T) {
	for _, class := range Classes() {
		for _, seed := range []int64{0, 1, -7, 20160523, SubSeed(3, 9)} {
			for _, rate := range []float64{0.05, 0.5, 3, 40} {
				for _, shape := range []struct{ blocks, size, burst int }{{16, 32, 0}, {5, 3, 3}} {
					cfg := CampaignConfig{Blocks: shape.blocks, BlockSize: shape.size, RatePerIteration: rate,
						Seed: seed, Class: class, BurstSize: shape.burst}
					got, want := Campaign(cfg), referenceCampaign(cfg)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s seed %d rate %g %+v: %d scenarios, reference %d", class.Key(), seed, rate, shape, len(got), len(want))
					}
				}
			}
		}
	}
}
