package vamana

import (
	"path/filepath"
	"testing"

	"vamana/internal/xmark"
)

// TestChecksumOverheadGate asserts that CRC32C page verification costs
// the warm-cache serving path at most 3% over the same store opened
// without verification (the seed pager's behavior: raw reads, no
// trailer check).
//
// Both stores run under a constrained page-cache budget so warm queries
// keep missing the node cache and issuing real pager reads — with the
// default budget the working set is fully cached after warm-up and the
// gate would measure nothing. Single-goroutine drain loops, alternating
// best-of-rounds (see gateSpecs).
func TestChecksumOverheadGate(t *testing.T) {
	g := gate(t, "checksum")
	src := xmark.GenerateString(xmark.Config{Factor: xmark.FactorForBytes(256 << 10), Seed: 51})
	open := func(name string, disable bool) (*DB, *Document) {
		return openWarm(t, Options{
			Path:       filepath.Join(t.TempDir(), name),
			CachePages: 64, // keep warm queries reading through the pager
		}, benchKnobs{noChecksumVerify: disable}, src, 1, workloadExprs)
	}
	verDB, verDoc := open("verified.vam", false)
	rawDB, rawDoc := open("raw.vam", true)
	g.run(t, alternating(queryNs(rawDB, rawDoc, workloadExprs), queryNs(verDB, verDoc, workloadExprs)))
}
