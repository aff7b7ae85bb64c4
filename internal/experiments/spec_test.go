package experiments

import (
	"reflect"
	"testing"

	"swbfs/internal/chaos"
	"swbfs/internal/obs"
	"swbfs/internal/runspec"
)

// sweepCase is one sweep driven under a run spec, with the number of
// functional runs (configurations x roots) it performs.
type sweepCase struct {
	name string
	runs int
	run  func(t *testing.T, spec runspec.Spec) *Table
}

func specSweeps() []sweepCase {
	return []sweepCase{
		{"ablations", 9 * 2, func(t *testing.T, spec runspec.Spec) *Table {
			tab, err := Ablations(spec, AblationOptions{Nodes: 4, Scale: 11, Roots: 2, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			return tab
		}},
		{"policy", 3 * 2, func(t *testing.T, spec runspec.Spec) *Table {
			tab, err := PolicySweep(spec, PolicySweepOptions{
				Nodes: 4, Scale: 11, Roots: 2, Seed: 9,
				Alphas: []float64{2, 14}, Betas: []float64{24},
			})
			if err != nil {
				t.Fatal(err)
			}
			return tab
		}},
		{"strong", 2 * 2, func(t *testing.T, spec runspec.Spec) *Table {
			return StrongScaling(spec, StrongOptions{Scale: 11, Nodes: []int{4, 8}, Roots: 2, Seed: 9})
		}},
	}
}

// TestSweepsRecordEveryRun: every functional run of a sweep reports to
// the spec's observer, and every recorded trace balances its books.
func TestSweepsRecordEveryRun(t *testing.T) {
	for _, sc := range specSweeps() {
		t.Run(sc.name, func(t *testing.T) {
			spec := runspec.Spec{Obs: obs.New()}
			sc.run(t, spec)
			if got := spec.Obs.Trace.Len(); got != sc.runs {
				t.Fatalf("%d traces recorded, want one per functional run (%d)", got, sc.runs)
			}
			for _, tr := range spec.Obs.Trace.Runs() {
				if err := tr.Reconcile(); err != nil {
					t.Fatalf("trace for root %d: %v", tr.Root, err)
				}
			}
		})
	}
}

// TestSweepsInjectSpecFaults: a kill plan in the spec reaches every
// functional run. A row whose runs hit the kill reads CRASH; a row whose
// runs never reach the struck delivery is unchanged, as fault plans that
// complete leave every modelled number alone.
func TestSweepsInjectSpecFaults(t *testing.T) {
	plan, err := chaos.ParsePlan("kill@1:l1:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range specSweeps() {
		if sc.name == "policy" {
			continue // policy has no CRASH cell; see TestPolicySweepFailsOnSpecFault
		}
		t.Run(sc.name, func(t *testing.T) {
			clean := sc.run(t, runspec.Spec{})
			faulted := sc.run(t, runspec.Spec{Chaos: &plan})
			if len(faulted.Rows) != len(clean.Rows) {
				t.Fatalf("%d rows under the plan, %d without", len(faulted.Rows), len(clean.Rows))
			}
			crashed := 0
			for i, row := range faulted.Rows {
				switch {
				case row[1] == "CRASH":
					crashed++
				case !reflect.DeepEqual(row, clean.Rows[i]):
					t.Fatalf("row %d changed without crashing: %v vs %v", i, row, clean.Rows[i])
				}
			}
			if crashed == 0 || faulted.Rows[0][1] != "CRASH" {
				t.Fatalf("the kill crashed %d rows (first row %v); want the first row and any others it strikes", crashed, faulted.Rows[0])
			}
		})
	}
}

func TestPolicySweepFailsOnSpecFault(t *testing.T) {
	plan, err := chaos.ParsePlan("kill@1:l1:data/forward:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PolicySweep(runspec.Spec{Chaos: &plan}, PolicySweepOptions{
		Nodes: 4, Scale: 11, Roots: 1, Seed: 9, Alphas: []float64{14}, Betas: []float64{24},
	}); err == nil {
		t.Fatal("policy sweep completed through a kill")
	}
}
