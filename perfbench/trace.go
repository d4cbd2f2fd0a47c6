package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// span is one timed call the benchmark made, kept in memory and written
// out when the traced run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a root span
	Run     int    `json:"run"`    // cell number: 0 is the warm-up, then timed cells, then probes
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since benchmark start
	EndNS   int64  `json:"end_ns"`
}

// tracer records spans while on; begin returns -1 and records nothing
// while off, so the untraced run pays only a branch.
type tracer struct {
	on    bool
	t0    time.Time
	run   int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Run: t.run, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(), EndNS: -1,
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].EndNS = time.Since(t.t0).Nanoseconds()
	}
}

// profiler collects CPU profiles of the traced cells and attributes their
// samples to buckets (see bucketOf).
type profiler struct {
	buf     bytes.Buffer
	running bool
	ns      map[string]float64 // CPU ns per bucket
	total   float64
	samples int
	err     error
}

func (p *profiler) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
		return
	}
	p.running = true
}

func (p *profiler) stop() {
	if !p.running {
		return
	}
	pprof.StopCPUProfile()
	p.running = false
	if err := p.attribute(p.buf.Bytes()); err != nil && p.err == nil {
		p.err = err
	}
}

// share returns a bucket's fraction of all profiled CPU.
func (p *profiler) share(bucket string) float64 {
	if p.total == 0 {
		return 0
	}
	return p.ns[bucket] / p.total
}

// Buckets. A sample goes to gc_alloc if any frame is allocation or
// garbage-collection work, else to sched if any frame is goroutine
// scheduling or handoff (channel operations, parking, waking, the
// scheduler loop, futexes), else to the first frame from one of the
// program's packages (standard-library helpers count for their caller),
// else to other.
const (
	bucketSched = "sched"
	bucketGC    = "gc_alloc"
	bucketOther = "other"
)

const modulePrefix = "vswapsim/internal/"

var gcFuncs = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
	"runtime.makemap", "runtime.newarray", "runtime.gcBgMarkWorker", "runtime.gcDrain",
	"runtime.gcAssistAlloc", "runtime.markroot", "runtime.scanobject", "runtime.greyobject",
	"runtime.bgsweep", "runtime.sweepone", "runtime.bgscavenge", "runtime.gcStart",
	"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.wbBufFlush",
	"runtime.gcWriteBarrier", "runtime.(*mheap)", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.gcstopm", "runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan)",
}

var schedFuncs = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.mcall", "runtime.chansend", "runtime.chanrecv",
	"runtime.selectgo", "runtime.notesleep", "runtime.notewakeup", "runtime.stopm",
	"runtime.startm", "runtime.wakep", "runtime.handoffp", "runtime.goschedImpl",
	"runtime.gosched_m", "runtime.newproc", "runtime.goexit0", "runtime.execute",
	"runtime.runqget", "runtime.runqput", "runtime.runqsteal", "runtime.casgstatus",
	"runtime.futex", "runtime.usleep", "runtime.osyield", "runtime.netpoll", "runtime.sysmon",
	"runtime.semacquire", "runtime.semrelease", "runtime.lock2", "runtime.unlock2",
	"runtime.mPark", "runtime.resetspinning", "runtime.gogo", "runtime.send", "runtime.recv",
	"runtime.chanparkcommit", "runtime.exitsyscall", "runtime.entersyscall",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf attributes one sample, given its frames leaf first.
func bucketOf(frames []string) string {
	for _, f := range frames {
		if hasPrefixAny(f, gcFuncs) {
			return bucketGC
		}
	}
	for _, f := range frames {
		if hasPrefixAny(f, schedFuncs) {
			return bucketSched
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, modulePrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			return pkg
		}
	}
	return bucketOther
}

// attribute decodes one gzipped pprof CPU profile and adds its samples'
// CPU time to the buckets. Only the fields it needs are decoded: samples
// (location ids, values), locations (line function ids), functions
// (name string index) and the string table.
func (p *profiler) attribute(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]uint64{}   // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if p.ns == nil {
		p.ns = map[string]float64{}
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		var frames []string
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		p.ns[bucketOf(frames)] += v
		p.total += v
		p.samples++
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// varint (v) or packed (b).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or (length-delimited fields) its bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			data = b[n : n+int(l)] // non-nil even when empty: appendPacked relies on it
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unknown wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
