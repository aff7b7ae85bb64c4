package experiments

import (
	"fmt"

	"swbfs/internal/core"
	"swbfs/internal/perf"
	"swbfs/internal/runspec"
)

// publishedResult is one row of Table 2 (published distributed-BFS
// results).
type publishedResult struct {
	Authors    string
	Year       int
	Scale      int
	GTEPS      float64
	Processors string
	Arch       string
	Hetero     bool
}

var table2Published = []publishedResult{
	{"Ueno", 2013, 35, 317, "1,366 (16.4K cores) + 4096", "Xeon X5670 + Fermi M2050", true},
	{"Beamer", 2013, 35, 240, "7,187 (115.0K cores)", "Cray XK6", false},
	{"Hiragushi", 2013, 31, 117, "1,024", "Tesla M2090", true},
	{"Checconi", 2014, 40, 15363, "65,536 (1.05M cores)", "Blue Gene/Q", false},
	{"Buluc", 2015, 36, 865.3, "4,817 (115.6K cores)", "Cray XC30", false},
	{"(K Computer)", 2015, 40, 38621.4, "82,944 (663.5K cores)", "SPARC64 VIIIfx", false},
	{"Bisson", 2016, 33, 830, "4,096", "Kepler K20X", true},
}

// paperResult is the present work's published row.
var paperResult = publishedResult{
	Authors: "Present Work (paper)", Year: 2016, Scale: 40, GTEPS: 23755.7,
	Processors: "40,768 (10.6M cores)", Arch: "SW26010", Hetero: true,
}

// HeadlineNodes is the node count of the paper's headline run; the paper's
// scale-40 problem puts about 2^40 / 40768 ≈ 27M vertices on each node.
const HeadlineNodes = 40768

// headlinePerNodeVertices is the paper's per-node problem size at scale 40.
const headlinePerNodeVertices = float64(int64(1)<<40) / HeadlineNodes

// Headline projects the reproduction's full-machine number from a
// functional Relay-CPE measurement, scaling both the node count and the
// per-node problem size to the paper's scale-40 operating point. The
// measurement runs under spec.
func Headline(spec runspec.Spec, perNodeLog, roots int, seed int64) (*Measurement, *Projection) {
	if perNodeLog == 0 {
		perNodeLog = 13
	}
	if roots == 0 {
		roots = 2
	}
	if seed == 0 {
		seed = 20160624
	}
	m := MeasureBFS(spec, 64, perNodeLog, core.TransportRelay, perf.EngineCPE, roots, seed)
	if m.Crashed() {
		return m, &Projection{Nodes: HeadlineNodes, Err: m.Err}
	}
	workRatio := headlinePerNodeVertices / float64(m.PerNodeVertices)
	if workRatio < 1 {
		workRatio = 1
	}
	return m, ProjectWork(m, HeadlineNodes, workRatio)
}

// Table2 reproduces the cross-system comparison, appending this
// reproduction's modelled full-machine row.
func Table2(headline *Projection) *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Recent distributed BFS results (Table 2)",
		Header: []string{"Authors", "Year", "Scale", "GTEPS", "Processors", "Architecture", "Hetero"},
	}
	rows := append(append([]publishedResult{}, table2Published...), paperResult)
	for _, r := range rows {
		t.AddRow(r.Authors, fmt.Sprint(r.Year), fmt.Sprint(r.Scale),
			fmt.Sprintf("%.1f", r.GTEPS), r.Processors, r.Arch, heteroStr(r.Hetero))
	}
	if headline != nil && !headline.Crashed() {
		t.AddRow("This reproduction (modelled)", "2026", "-",
			fmt.Sprintf("%.1f", headline.GTEPS),
			fmt.Sprintf("%d simulated nodes", headline.Nodes), "simulated SW26010", "Hetero.")
		t.AddNote("the reproduction row is a weak-scaling projection from functional runs on the simulated machine; absolute GTEPS are modelled, not testbed measurements")
	}
	return t
}

func heteroStr(h bool) string {
	if h {
		return "Hetero."
	}
	return "Homo."
}
