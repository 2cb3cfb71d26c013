package main

import (
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed meter.
//
// The benchmark's host is a small guest of a shared machine, and the speed
// the guest gets changes by the minute: the same case118 solve reads 270 ms
// in one stretch and 400 ms in the next, CPU time and wall time alike, for
// tens of seconds to minutes at a time (README, "Noise control"). No
// statistic of a 20-second run rides that out. So the client times a fixed
// piece of work of its own between its asks, for about a tenth of its time,
// on the one core it shares with the server (pin.go), and a round's times
// are divided by how much slower than nominal that work ran during the same
// round (to a power, refExponent below). What a run reports is time at the
// reference speed: a program that gets faster reads faster, a host that
// gets slower hardly reads at all. The times as the clocks read them are
// printed beside it.
//
// The work is a sparse matrix-vector product, the kind of loop the solvers
// spend their time in, over about 1.2 MB, so that like a case118 KKT factor
// it stays in a core's own cache. The meter uses the mean of its samples,
// not their median: when the host takes the core away for 20 ms at a time,
// a 300 ms solve loses its share of every such pause, and only a mean sees
// them. The meter is part of the benchmark, not of the program: a change
// to the program cannot move it.
const (
	refRows   = 8192
	refPerRow = 12
	// A sample is refWarm untimed products, so that the caches and the
	// core's clock are where they are in the middle of an ask, then
	// refPasses timed ones: about 20 ms.
	refWarm   = 10
	refPasses = 160
	// refNominalWallMS and refNominalCPUMS are the mean sample on the quiet
	// reference box (README, "Baseline"), by the wall clock and by the
	// thread's CPU clock: the speed every reported time is scaled to.
	refNominalWallMS = 19.2
	refNominalCPUMS  = 18.2
	// refEvery is the least time between two samples.
	refEvery = 200 * time.Millisecond
)

var (
	refIdx = make([]int32, refRows*refPerRow)
	refVal = make([]float64, refRows*refPerRow)
	refX   = make([]float64, refRows)
)

func init() {
	s := uint32(12345)
	for i := range refIdx {
		s = s*1664525 + 1013904223 // a fixed generator: the matrix is the same in every run
		row, k := i/refPerRow, i%refPerRow
		if k < 8 {
			refIdx[i] = int32((row + 3*k) % refRows) // a band, as in a network matrix
		} else {
			refIdx[i] = int32(s>>8) % refRows // and fill far from it
		}
		refVal[i] = 1 + float64(s%1000)/1e6
	}
	for i := range refX {
		refX[i] = 1
	}
}

// hostMeter is the client's meter; it is not safe for concurrent use.
type hostMeter struct {
	y    []float64
	last time.Time
	hostLoad
}

func newHostMeter() *hostMeter { return &hostMeter{y: make([]float64, refRows)} }

func (m *hostMeter) product() {
	for r := 0; r < refRows; r++ {
		var a float64
		for k := r * refPerRow; k < (r+1)*refPerRow; k++ {
			a += refVal[k] * refX[refIdx[k]]
		}
		m.y[r] = a
	}
}

// threadCPU returns the CPU time the calling thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	// The call cannot fail with a valid clock and pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// sample times the reference work once, on the wall clock and on the
// thread's CPU clock.
func (m *hostMeter) sample() {
	runtime.LockOSThread() // the CPU clock is the thread's
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i := 0; i < refWarm; i++ {
		m.product()
	}
	t0, c0 := time.Now(), threadCPU()
	for i := 0; i < refPasses; i++ {
		m.product()
	}
	c1 := threadCPU()
	m.last = time.Now()
	m.wallMS += float64(m.last.Sub(t0)) / float64(time.Millisecond)
	m.cpuMS += float64(c1-c0) / float64(time.Millisecond)
	m.spent += m.last.Sub(start)
	m.n++
}

// tick samples if the last sample is refEvery old. The client calls it
// between two operations, never inside one.
func (m *hostMeter) tick() {
	if time.Since(m.last) >= refEvery {
		m.sample()
	}
}

// hostLoad is what the meter read over one stretch of a run.
type hostLoad struct {
	wallMS float64 // timed products, by the wall clock
	cpuMS  float64 // the same products, by the thread's CPU clock
	n      int
	spent  time.Duration // whole samples, warm products included
}

func (h *hostLoad) add(o hostLoad) {
	h.wallMS, h.cpuMS, h.n, h.spent = h.wallMS+o.wallMS, h.cpuMS+o.cpuMS, h.n+o.n, h.spent+o.spent
}

// refExponent is how much of the meter's slow-down a round's times are
// corrected for. The program does not follow the meter one to one: through
// two loud spells (meter up to 1.8 times nominal) the medians of the
// CPU-bound workloads rose by 0.7 to 0.95% for each 1% the meter rose,
// their 90th percentiles by up to 1.2% (a bursty host widens the tail), and
// gateway_mix's ask_p50_ms, part of which is sleep of fixed length, by
// 0.45%. Over those sets the largest quartile spread of any metric on any
// workload was 17% with a power of 0.75, 12% with 0.9 and 15% with 1; as
// read it was 36% (README, "Noise control").
const refExponent = 0.9

// factor is the number the stretch's wall-clock times are divided by: how
// many times slower than nominal the reference work ran, to the power
// refExponent. A stretch without a sample counts as nominal.
func (h hostLoad) factor() float64 { return refFactor(h.wallMS, h.n, refNominalWallMS) }

// cpuFactor is the same for CPU times, from the meter's own CPU time: like
// is corrected by like. The two differ when something else takes turns on
// the core, which costs the server wall time and no CPU time.
func (h hostLoad) cpuFactor() float64 { return refFactor(h.cpuMS, h.n, refNominalCPUMS) }

func refFactor(sumMS float64, n int, nominalMS float64) float64 {
	if n == 0 {
		return 1
	}
	return math.Pow(sumMS/float64(n)/nominalMS, refExponent)
}
