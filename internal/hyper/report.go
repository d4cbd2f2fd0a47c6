package hyper

import (
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
)

// This file is the machine-level half of the observability layer: a typed,
// machine-readable summary of one simulation run. `vswapsim run -json` and
// `vswapsim report -json` serialize it; the experiment layer collects one
// per simulated machine.

// traceTail bounds how many trailing trace events a report embeds when
// tracing is enabled; the full ring stays available via Machine.EnableTrace.
const traceTail = 32

// PhaseReport is the per-phase simulated-time accounting: where virtual
// time went, totalled across all processes of the run. Phases overlap
// (a guest thread can run while another waits on the disk), so they are
// independent totals, not a partition of TotalNS.
type PhaseReport struct {
	// GuestRunNS is CPU time guest threads executed on their VCPUs.
	GuestRunNS int64 `json:"guest_run_ns"`
	// HostFaultNS is CPU time the host spent handling faults (exits,
	// table walks, COW copies), excluding disk waits.
	HostFaultNS int64 `json:"host_fault_ns"`
	// DiskWaitNS is time processes were blocked on disk completions.
	DiskWaitNS int64 `json:"disk_wait_ns"`
	// ReclaimScanNS is CPU time spent scanning LRU lists in reclaim.
	ReclaimScanNS int64 `json:"reclaim_scan_ns"`
	// TotalNS is the final virtual clock of the run.
	TotalNS int64 `json:"total_ns"`
}

// TraceEventReport is one trace-ring event in serializable form.
type TraceEventReport struct {
	AtNS int64  `json:"at_ns"`
	Kind string `json:"kind"`
	Msg  string `json:"msg"`
}

// RunReport is the structured summary of one machine's run: every non-zero
// counter, every non-empty latency histogram, the phase accounting, and
// (when tracing was enabled) the tail of the event ring. All content is a
// pure function of the machine's seed and configuration, so serial and
// parallel executions serialize to identical bytes.
type RunReport struct {
	Seed       uint64                               `json:"seed"`
	Counters   map[string]int64                     `json:"counters"`
	Histograms map[string]metrics.HistogramSnapshot `json:"histograms"`
	Phases     PhaseReport                          `json:"phases"`
	Trace      []TraceEventReport                   `json:"trace,omitempty"`
}

// ReportFromSet builds a RunReport from a bare metric set with no backing
// machine — the cluster layer reports its fleet-level counters and the
// fleet unit-latency histogram this way, alongside the per-host machine
// reports. Only the total-time phase is meaningful.
func ReportFromSet(seed uint64, met *metrics.Set, now sim.Time) *RunReport {
	counters := make(map[string]int64)
	for k, v := range met.Snapshot() {
		if v != 0 {
			counters[k] = v
		}
	}
	hists := make(map[string]metrics.HistogramSnapshot)
	for _, h := range met.Histograms() {
		if h.Count() > 0 {
			hists[h.Name()] = h.Snapshot()
		}
	}
	return &RunReport{
		Seed:       seed,
		Counters:   counters,
		Histograms: hists,
		Phases:     PhaseReport{TotalNS: int64(now)},
	}
}

// Report captures the machine's current observability state. Call it after
// Run has drained (end-of-run totals); calling it mid-run snapshots
// whatever has accumulated so far.
func (m *Machine) Report() *RunReport {
	counters := make(map[string]int64)
	for k, v := range m.Met.Snapshot() {
		if v != 0 {
			counters[k] = v
		}
	}
	hists := make(map[string]metrics.HistogramSnapshot)
	for _, h := range m.Met.Histograms() {
		if h.Count() > 0 {
			hists[h.Name()] = h.Snapshot()
		}
	}
	r := &RunReport{
		Seed:       m.seed,
		Counters:   counters,
		Histograms: hists,
		Phases: PhaseReport{
			GuestRunNS:    m.Met.Get(metrics.TimeGuestRun),
			HostFaultNS:   m.Met.Get(metrics.TimeHostFault),
			DiskWaitNS:    m.Met.Get(metrics.TimeDiskWait),
			ReclaimScanNS: m.Met.Get(metrics.TimeReclaimScan),
			TotalNS:       int64(m.Env.Now()),
		},
	}
	if m.trace != nil {
		events := m.trace.Events()
		if len(events) > traceTail {
			events = events[len(events)-traceTail:]
		}
		for _, e := range events {
			r.Trace = append(r.Trace, TraceEventReport{
				AtNS: int64(e.At),
				Kind: e.Kind.String(),
				Msg:  e.Msg,
			})
		}
	}
	return r
}
