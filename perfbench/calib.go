package main

import (
	"runtime"
	"sort"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts by tens of percent
// from one minute to the next: the same cell, same input, took a median
// 1.8 s in one run and 2.7 s in the next. calibrate times a fixed
// reference kernel — benchmark code that never calls the program — before
// every timed cell and around every set-up process, and the end-to-end
// times are reported at a reference host speed:
//
//	reported = measured median × calibRefS / median calibration time
//
// The kernel mixes work whose speed moves with the host's the way the
// cells' does: goroutine handoffs across threads, pointer chasing over a
// heap graph larger than the caches, map updates, and sorting a
// cache-resident slice. Its data is built once, so after the first call it
// allocates only what a channel handoff does and does not depend on the
// state of the process's heap. A change to the program leaves the kernel's
// time alone, so a program that gets faster reports a proportionally
// smaller time. README.md gives how the parts were chosen.

// calibRefS is the kernel's typical time on the reference host (the 2-CPU
// Xeon the benchmark was defined on). It only sets the scale of the
// reported times; any fixed value would do.
const calibRefS = 0.110

// hostSpeed is the factor that scales times measured next to calibs to
// the reference host speed.
func hostSpeed(calibs []float64) float64 {
	m := median(calibs)
	if m <= 0 {
		return 1
	}
	return calibRefS / m
}

type calibNode struct {
	next *calibNode
	val  [6]int64
}

// calibData is the kernel's input, built on the first call.
var calibData struct {
	graph      []*calibNode
	table      map[int]int
	unsorted   []int
	sortBuffer []int
}

var calibSink int64

// xorshift is a fixed pseudo-random sequence for the kernel's input.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func buildCalibData() {
	const nodes, keys, sortLen = 1 << 18, 50_000, 2048
	d := &calibData
	d.graph = make([]*calibNode, nodes)
	for i := range d.graph {
		d.graph[i] = &calibNode{}
	}
	x := uint64(88172645463325252)
	for _, c := range d.graph {
		x = xorshift(x)
		c.next = d.graph[x%nodes]
	}
	d.table = make(map[int]int, keys)
	for i := 0; i < keys; i++ {
		d.table[i] = 0
	}
	d.unsorted = make([]int, sortLen)
	for i := range d.unsorted {
		x = xorshift(x)
		d.unsorted[i] = int(x % 100_000)
	}
	d.sortBuffer = make([]int, sortLen)
}

// calibrate runs the reference kernel once, starting from a collected
// heap, and returns its wall time in seconds. The heap is collected again
// afterwards, so nothing of the kernel is charged to the next cell.
func calibrate() float64 {
	if calibData.graph == nil {
		buildCalibData()
	}
	runtime.GC()
	t := time.Now()
	calibSink += calibHandoff(110_000) + calibChase(2_000_000) + calibMap(200_000) + calibSort(150)
	d := time.Since(t).Seconds()
	runtime.GC()
	return d
}

// calibHandoff passes a value to a goroutine and back n times.
func calibHandoff(n int) int64 {
	ch, done := make(chan int), make(chan int)
	go func() {
		for v := range ch {
			done <- v
		}
		close(done)
	}()
	var s int64
	for i := 0; i < n; i++ {
		ch <- i
		s += int64(<-done)
	}
	close(ch)
	<-done
	return s
}

// calibChase walks the heap graph for steps, updating each node it visits.
func calibChase(steps int) int64 {
	p := calibData.graph[0]
	var s int64
	for i := 0; i < steps; i++ {
		p.val[i%6]++
		s += p.val[0]
		p = p.next
	}
	return s
}

// calibMap updates the table's keys n times.
func calibMap(n int) int64 {
	t := calibData.table
	for i := 0; i < n; i++ {
		t[i%len(t)] += i
	}
	return int64(t[0])
}

// calibSort sorts a copy of the unsorted slice reps times.
func calibSort(reps int) int64 {
	b := calibData.sortBuffer
	for i := 0; i < reps; i++ {
		copy(b, calibData.unsorted)
		sort.Ints(b)
	}
	return int64(b[len(b)/2])
}
