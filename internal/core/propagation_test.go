package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"abftchol/internal/fault"
	"abftchol/internal/hetsim"
)

// TestPropagationAccountingPinned pins Result.Injections (count and a
// digest of their printed form) and Result.PropagationEvents for
// model-plane campaign runs across schemes, fault classes and seeds.
// The values were recorded when the ledger still stored every
// propagated smear; counting them instead, and skipping clean blocks
// in markPropagation, must not move a single one. MaxAttempts 2 lets
// the restart path (Ledger.Reset) contribute too.
func TestPropagationAccountingPinned(t *testing.T) {
	pins := []struct {
		scheme, class string
		seed          int64
		injections    int
		propagations  int
		digest        uint64
		failed        bool
	}{
		{"magma", "storage-offset", 1, 6, 696, 0xd37a015d92e41d94, false},
		{"magma", "storage-offset", 7, 1, 16, 0x95513a3d74ef13fa, false},
		{"magma", "storage-offset", 42, 6, 1274, 0xef50e8928fb67ecc, false},
		{"magma", "storage-exponent", 1, 6, 699, 0xf7ebe5ca0a55e69b, false},
		{"magma", "storage-exponent", 7, 1, 16, 0xc95ed3119f256c62, false},
		{"magma", "storage-exponent", 42, 6, 1276, 0x4b7de4085bd4ac7d, false},
		{"magma", "compute-offset", 1, 6, 408, 0x7ffdbe4a4df50a72, false},
		{"magma", "compute-offset", 7, 1, 15, 0x4b77e0cb66e5e2d9, false},
		{"magma", "compute-offset", 42, 6, 526, 0x60573aa49ca9faa2, false},
		{"magma", "storage-mantissa-burst", 1, 12, 700, 0x5c2c9f2b39e8a7c8, false},
		{"magma", "storage-mantissa-burst", 7, 2, 16, 0x6d42d32313192039, false},
		{"magma", "storage-mantissa-burst", 42, 12, 1318, 0x513eb2b1658f81df, false},
		{"magma", "compute-exponent-burst", 1, 12, 406, 0xb1dc5cd53d8c41e4, false},
		{"magma", "compute-exponent-burst", 7, 2, 15, 0xf06a7038c221c080, false},
		{"magma", "compute-exponent-burst", 42, 12, 532, 0xd09d614746982c20, false},
		{"online", "storage-offset", 1, 6, 628, 0xd37a015d92e41d94, false},
		{"online", "storage-offset", 7, 1, 7, 0x95513a3d74ef13fa, false},
		{"online", "storage-offset", 42, 6, 218, 0xef50e8928fb67ecc, true},
		{"online", "storage-exponent", 1, 6, 155, 0xf7ebe5ca0a55e69b, true},
		{"online", "storage-exponent", 7, 1, 7, 0xc95ed3119f256c62, false},
		{"online", "storage-exponent", 42, 6, 1053, 0x4b7de4085bd4ac7d, false},
		{"online", "compute-offset", 1, 6, 0, 0x7ffdbe4a4df50a72, false},
		{"online", "compute-offset", 7, 1, 0, 0x4b77e0cb66e5e2d9, false},
		{"online", "compute-offset", 42, 6, 0, 0x60573aa49ca9faa2, false},
		{"online", "storage-mantissa-burst", 1, 6, 3, 0x3dfbbad32fa6af60, true},
		{"online", "storage-mantissa-burst", 7, 2, 1, 0x6d42d32313192039, false},
		{"online", "storage-mantissa-burst", 42, 8, 122, 0x682b44714a26c0c3, true},
		{"online", "compute-exponent-burst", 1, 6, 0, 0xec6e906c91bce117, true},
		{"online", "compute-exponent-burst", 7, 2, 0, 0xf06a7038c221c080, false},
		{"online", "compute-exponent-burst", 42, 6, 0, 0x2800a2dee6ffae3d, true},
		{"enhanced", "storage-offset", 1, 6, 0, 0xd37a015d92e41d94, false},
		{"enhanced", "storage-offset", 7, 1, 1, 0x95513a3d74ef13fa, false},
		{"enhanced", "storage-offset", 42, 6, 2, 0xef50e8928fb67ecc, false},
		{"enhanced", "storage-exponent", 1, 6, 0, 0xf7ebe5ca0a55e69b, false},
		{"enhanced", "storage-exponent", 7, 1, 1, 0xc95ed3119f256c62, false},
		{"enhanced", "storage-exponent", 42, 6, 2, 0x4b7de4085bd4ac7d, false},
		{"enhanced", "compute-offset", 1, 6, 0, 0x7ffdbe4a4df50a72, false},
		{"enhanced", "compute-offset", 7, 1, 0, 0x4b77e0cb66e5e2d9, false},
		{"enhanced", "compute-offset", 42, 6, 0, 0x60573aa49ca9faa2, false},
		{"enhanced", "storage-mantissa-burst", 1, 6, 0, 0x3dfbbad32fa6af60, true},
		{"enhanced", "storage-mantissa-burst", 7, 2, 1, 0x6d42d32313192039, false},
		{"enhanced", "storage-mantissa-burst", 42, 8, 2, 0x682b44714a26c0c3, true},
		{"enhanced", "compute-exponent-burst", 1, 6, 0, 0xec6e906c91bce117, true},
		{"enhanced", "compute-exponent-burst", 7, 2, 0, 0xf06a7038c221c080, false},
		{"enhanced", "compute-exponent-burst", 42, 6, 0, 0x2800a2dee6ffae3d, true},
	}
	prof := hetsim.Laptop()
	const n = 512
	for _, p := range pins {
		scheme, err := ParseScheme(p.scheme)
		if err != nil {
			t.Fatal(err)
		}
		class, err := fault.ParseClass(p.class)
		if err != nil {
			t.Fatal(err)
		}
		scen := fault.Campaign(fault.CampaignConfig{Blocks: n / prof.BlockSize, BlockSize: prof.BlockSize,
			RatePerIteration: 0.3, Seed: p.seed, Class: class})
		res, err := Run(Options{N: n, BlockSize: prof.BlockSize, K: 2, ChecksumVectors: 2, Scheme: scheme,
			Profile: prof, MaxAttempts: 2, ConcurrentRecalc: true, Scenarios: scen})
		h := fnv.New64a()
		fmt.Fprint(h, res.Injections)
		if len(res.Injections) != p.injections || res.PropagationEvents != p.propagations || h.Sum64() != p.digest || (err != nil) != p.failed {
			t.Errorf("%s %s seed %d: injections %d (digest %#x), propagations %d, failed %v; want %d (%#x), %d, %v",
				p.scheme, p.class, p.seed, len(res.Injections), h.Sum64(), res.PropagationEvents, err != nil,
				p.injections, p.digest, p.propagations, p.failed)
		}
	}
}
