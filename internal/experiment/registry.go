package experiment

import (
	"errors"
	"fmt"
)

// ErrUnknownExperiment is wrapped by every lookup of an id the registry
// does not hold; the CLI maps it to exit code 1 rather than a usage error.
var ErrUnknownExperiment = errors.New("unknown experiment")

// Registry lists every reproduced table and figure in paper order.
var Registry = []Experiment{
	{ID: "fig3", Title: "200MB read, 512MB guest on 100MB", PaperNote: "Fig. 3", Run: Fig3},
	{ID: "fig4", Title: "Ten phased MapReduce guests", PaperNote: "Fig. 4", Run: Fig4},
	{ID: "fig5", Title: "pbzip2 sweep: runtime + over-ballooning", PaperNote: "Fig. 5", Run: Fig5},
	{ID: "fig9", Title: "Sysbench pathology panels", PaperNote: "Fig. 9", Run: Fig9},
	{ID: "fig10", Title: "False reads on an allocating process", PaperNote: "Fig. 10", Run: Fig10},
	{ID: "fig11", Title: "pbzip2 I/O and reclaim panels", PaperNote: "Fig. 11", Run: Fig11},
	{ID: "fig12", Title: "Kernbench runtime + preventer remaps", PaperNote: "Fig. 12", Run: Fig12},
	{ID: "fig13", Title: "DaCapo Eclipse sweep", PaperNote: "Fig. 13", Run: Fig13},
	{ID: "fig14", Title: "Dynamic MapReduce scale-up", PaperNote: "Fig. 14", Run: Fig14},
	{ID: "fig15", Title: "Mapper tracking vs guest page cache", PaperNote: "Fig. 15", Run: Fig15},
	{ID: "tab1", Title: "VSwapper lines of code", PaperNote: "Table 1", Run: Table1},
	{ID: "tab2", Title: "Balloon enabled vs disabled (VMware profile)", PaperNote: "Table 2", Run: Table2},
	{ID: "overhead", Title: "Overhead with plentiful memory", PaperNote: "§5.3", Run: Overhead},
	{ID: "windows", Title: "Windows-profile guest", PaperNote: "§5.4", Run: Windows},
	{ID: "ablation", Title: "Design-choice ablations", PaperNote: "DESIGN.md §6", Run: Ablations},
	{ID: "migration", Title: "Mapping-assisted migration estimate", PaperNote: "§7 future work", Run: Migration},
	{ID: "fleetN", Title: "Cloud-density fleet on one overcommitted host", PaperNote: "beyond Fig. 14", Run: FleetN},
	{ID: "backendN", Title: "Swap-backend tiers: hdd/ssd/zswap/remote", PaperNote: "beyond §2.1", Run: BackendN},
	{ID: "clusterN", Title: "Cluster remediation policies under overcommit", PaperNote: "beyond the paper", Run: ClusterN},
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w %q", ErrUnknownExperiment, id)
}

// IDs lists all experiment ids in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}
