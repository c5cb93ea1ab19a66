package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"dvr/internal/graphgen"
)

// quickGraph is the quick suite's GAP input (experiments.QuickSuite).
var quickGraph = graphgen.Params{Gen: graphgen.GenKronecker, Scale: 13, EdgeFactor: 8, Seed: 7, Name: "KR-S"}

// imageDigest hashes a freshly built workload's whole memory image (every
// page it created, with its page number) and its program listing.
func imageDigest(w *Workload) string {
	h := sha256.New()
	var pn [8]byte
	for _, d := range w.Mem.SnapshotPages() {
		binary.LittleEndian.PutUint64(pn[:], d.PN)
		h.Write(pn[:])
		h.Write(d.Data)
	}
	h.Write([]byte(w.Prog.Disassemble()))
	return hex.EncodeToString(h.Sum(nil))
}

// goldenImages pins every quick-suite image byte for byte. The digests
// were taken before image construction was last optimised; a change here
// changes every figure the simulator prints.
var goldenImages = map[string]string{
	"bc_KR-S":      "c340df20702975f9af520d472238e82d40af88b48a4c13cd07e9fa2b8f43576d",
	"bfs_KR-S":     "37ded3bad271617f1a3b2b226e5ece91bd98701019b697d90829df12307600b2",
	"cc_KR-S":      "307b7027a9632b22df8f492d5123d384471cd1307f29169e94ba72b0dc9d25d5",
	"pr_KR-S":      "44217a6ccbfd9c8d07d28eed25f28f28d11288dd37156efa4d47ea697114d5a5",
	"sssp_KR-S":    "27b96fc9afa46e322cfb466205685bbd8e9e4c1a700f6cd400c5fe9c70f5663a",
	"camel":        "aed09e8f80ead642be4a7dc799a7819f7a3f471fe445d9983de5c0af91ccbf04",
	"graph500":     "aa3c9be146640224b6e3a84d291e545c6497cbcf0e700a4ea1691c7757b2bb53",
	"hj2":          "e332795a4bfa335cea359a184a4910e1241d77e759a05091b509745ecd1ad107",
	"hj8":          "c8251ab80d4c354a730332a9f241f0223763a7fe16da031ae7a44c8da63225c0",
	"kangaroo":     "907b468444c93e2e73e82b5f63af49ecf504bfd666baa851785f3e3c18286f10",
	"nas-cg":       "8d20ff33611dbd2135c45b5bae195d45d5bd6eb727a84c2df1af593f5b7953d2",
	"nas-is":       "61f5e554351f94c9ae6f9f8ddccc9f2bd40916c647ce238a885dee51eb3dca98",
	"randomaccess": "7014ec1f02a7b3a68cbda4edc0087d1760d32b9a1036c37562671a0729e84c78",
}

func TestGoldenImages(t *testing.T) {
	specs := append(GAPSpecs(quickGraph.Input()), HPCDBSpecs()...)
	for _, sp := range specs {
		got := imageDigest(sp.Build())
		if want := goldenImages[sp.Name]; got != want {
			t.Errorf("%s: image digest %s, want %s", sp.Name, got, want)
		}
	}
	if len(specs) != len(goldenImages) {
		t.Errorf("%d quick-suite images, %d golden digests", len(specs), len(goldenImages))
	}
}
