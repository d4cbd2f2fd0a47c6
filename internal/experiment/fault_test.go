package experiment

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"vswapsim/internal/fault"
	"vswapsim/internal/hyper"
	"vswapsim/internal/metrics"
	"vswapsim/internal/sim"
	"vswapsim/internal/swapback"
)

// auditStride lets the property sweep rerun with the auditor on every
// event after structural changes to the audited state (flat swap/file
// tables, owner slabs):
//
//	go test ./internal/experiment -run TestFaultPlanPropertySweep -auditstride 1
var auditStride = flag.Int("auditstride", 2048,
	"invariant-audit stride for the fault property sweep (1 = audit every event)")

// faultOpts is the fault-test configuration: small and quick, with the
// invariant auditor strided tightly enough to catch corruption close to
// its origin without dominating runtime.
func faultOpts(plan fault.Plan) Options {
	o := goldenOpts()
	o.Scale = 0.0625
	o.Faults = plan
	o.AuditEvery = 2048
	return o
}

// TestFaultPlanPropertySweep is the property test over the fault space:
// randomized plans across many seeds run fig3 in quick mode with the
// invariant auditor attached. Any violation carries the seed and the
// canonical plan spec, so a failure here is replayable with
//
//	go run ./cmd/vswapsim run fig3 -quick -scale 0.0625 -seed <seed> \
//	    -faults '<spec>' -swapback <tier> -auditevery 1
func TestFaultPlanPropertySweep(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for i := 0; i < seeds; i++ {
		seed := uint64(i)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			plan := fault.RandomPlan(seed)
			o := faultOpts(plan)
			o.AuditEvery = *auditStride
			o.Seed = 1000 + seed // vary the machine streams along with the plan
			// Cycle the swap-backend tier with the seed so the sweep
			// exercises every tier's fault handling under the auditor,
			// not just the default device.
			kinds := swapback.AllKinds()
			o.Swapback = kinds[int(seed)%len(kinds)]
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("seed %d, plan %q, backend %s: %v", seed, plan, o.Swapback, r)
				}
			}()
			e, err := ByID("fig3")
			if err != nil {
				t.Fatal(err)
			}
			resetSweepCaches()
			e.Run(o)
		})
	}
}

// TestFaultMetamorphicSerialParallel is the metamorphic determinism
// property under injection: an identical seed and non-empty plan must
// produce byte-identical JSON whether the sweep runs serially or on the
// parallel executor — injected faults come from per-machine streams, never
// from shared state.
func TestFaultMetamorphicSerialParallel(t *testing.T) {
	plan := fault.MustParse("disk-read-err:0.01;disk-lat:0.02:1ms;swapin-fail:0.02;map-poison:0.01")
	serial := faultOpts(plan)
	parallel := faultOpts(plan)
	parallel.Parallel = 8
	a := jsonBytes(t, "fig5", serial)
	b := jsonBytes(t, "fig5", parallel)
	var da, db JSONDocument
	if err := json.Unmarshal(a, &da); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &db); err != nil {
		t.Fatal(err)
	}
	if da.Faults != plan.String() || db.Faults != plan.String() {
		t.Fatalf("documents do not carry the plan: %q / %q", da.Faults, db.Faults)
	}
	// The documents embed their Parallel setting; compare everything else.
	da.Parallel, db.Parallel = 0, 0
	ja, _ := json.Marshal(da)
	jb, _ := json.Marshal(db)
	if !bytes.Equal(ja, jb) {
		t.Fatal("serial and parallel JSON reports differ under fault injection")
	}
}

// TestEmptyFaultPlanMatchesGolden pins the zero-overhead-when-off
// guarantee in bytes: running with a parsed-but-empty plan (and the
// injection plumbing threaded through every layer) produces output
// byte-identical to the pre-injection golden report.
func TestEmptyFaultPlanMatchesGolden(t *testing.T) {
	empty, err := fault.ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	o := goldenOpts()
	o.TraceRing = 64 // the golden report embeds the trace tail
	o.Faults = empty
	got := jsonBytes(t, "fig3", o)
	want, err := os.ReadFile(goldenReportFile)
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("empty fault plan perturbed the golden report bytes")
	}
}

// TestFaultCountersSurfaceInReport: a non-empty plan shows up in the JSON
// document (the faults field) and at least one run's counters record
// injected firings — the contract CI's jq validation relies on.
func TestFaultCountersSurfaceInReport(t *testing.T) {
	plan := fault.MustParse("disk-read-err:0.05;disk-lat:0.1:1ms;swapin-fail:0.05")
	var doc JSONDocument
	if err := json.Unmarshal(jsonBytes(t, "fig3", faultOpts(plan)), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Faults != plan.String() {
		t.Fatalf("document faults = %q, want %q", doc.Faults, plan.String())
	}
	fired := int64(0)
	for _, r := range doc.Experiments[0].Runs {
		for name, v := range r.Report.Counters {
			if strings.HasPrefix(name, "fault.") {
				fired += v
			}
		}
	}
	if fired == 0 {
		t.Fatal("no fault.* counters in any run record")
	}
}

// TestAuditViolationMessageCarriesReplay: attachAudit's panic must name
// the experiment seed and the plan spec so a property-sweep failure can be
// replayed from the failure message alone.
func TestAuditViolationMessageCarriesReplay(t *testing.T) {
	o := faultOpts(fault.MustParse("swapin-fail:0.5"))
	m := hyper.NewMachine(hyper.MachineConfig{Seed: 9, HostMemPages: 1 << 12})
	check := o.attachAudit(m, 9)
	m.Env.Go("idle", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		m.Shutdown()
	})
	m.Run()
	// A negative counter fails the final audit's monotonicity pass.
	m.Met.Add(metrics.DiskOps, -1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic on an invariant violation")
		}
		msg := fmt.Sprint(r)
		for _, want := range []string{fmt.Sprintf("seed=%d", o.Seed), o.Faults.String()} {
			if !strings.Contains(msg, want) {
				t.Errorf("violation message %q missing replay datum %q", msg, want)
			}
		}
	}()
	check()
}

// TestAttachAuditDisabledIsNoop: with auditing off the returned closure
// must do nothing, even for a machine that was never run.
func TestAttachAuditDisabledIsNoop(t *testing.T) {
	o := faultOpts(fault.Plan{})
	o.AuditEvery = 0
	o.attachAudit(nil, 7)() // must not dereference the nil machine
}
