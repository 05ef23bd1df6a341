package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cata/internal/metrics"
)

// metric is one printed figure: its value as measured and its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// figures maps metric names to values; each workload fills one.
type figures map[string]metric

func (f figures) set(name string, v float64, unit string) { f[name] = metric{v, unit} }

// merge copies every figure of g into f, overwriting.
func (f figures) merge(g figures) {
	for k, v := range g {
		f[k] = v
	}
}

// tally counts operations and the ones that failed or produced a
// wrong output. It feeds success_rate and the result line.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64 // returned an error
	incorrect int64 // completed with an output that did not check
	notes     int
}

// op records one attempted operation; err != nil marks it failed.
func (t *tally) op(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.note("failed: %v", err)
	}
}

// ops records n operations that completed without error.
func (t *tally) ops(n int64) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

// check records one output check: a false ok marks an incorrect
// output. The check itself is not an operation.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.incorrect++
	t.note("incorrect: "+format, args...)
}

// note prints the first few problems to stderr; t.mu is held.
func (t *tally) note(format string, args ...any) {
	if t.notes < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
	t.notes++
}

func (t *tally) successRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	bad := min(t.failed+t.incorrect, t.attempted)
	return float64(t.attempted-bad) / float64(t.attempted)
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   figures `json:"metrics"`
}

func (t *tally) result(f figures) result {
	t.mu.Lock()
	defer t.mu.Unlock()
	return result{
		Correct:   t.failed == 0 && t.incorrect == 0 && t.attempted > 0,
		Attempted: max(t.attempted, 1),
		Failed:    min(t.failed+t.incorrect, max(t.attempted, 1)),
		Metrics:   f,
	}
}

// derive maps the benchmark seed and a label to an input seed, so every
// input stream (matrix seeds, arrival seed, fresh catad seeds) is a
// function of the one --seed argument and nothing else.
func derive(seed uint64, label string, n ...int) uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, label)
	for _, v := range n {
		fmt.Fprintf(h, "/%d", v)
	}
	x := seed ^ h.Sum64()
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // the program treats seed 0 as "default"
	}
	return x
}

// quantile is the nearest-rank q-quantile of vs (sorted in place).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	slices.Sort(vs)
	i := int(math.Ceil(q*float64(len(vs)))) - 1
	return vs[min(max(i, 0), len(vs)-1)]
}

func median(vs []float64) float64 { return quantile(slices.Clone(vs), 0.5) }

// windowQuantiles returns the q-quantile of each run of size
// consecutive samples (a partial last run is dropped), or of all samples
// when there are fewer than size. The median over windows is a tail
// figure that a burst of load from outside the benchmark moves only in
// the windows it hits.
func windowQuantiles(vs []float64, size int, q float64) []float64 {
	if len(vs) < size {
		return []float64{quantile(slices.Clone(vs), q)}
	}
	var per []float64
	for i := 0; i+size <= len(vs); i += size {
		per = append(per, quantile(slices.Clone(vs[i:i+size]), q))
	}
	return per
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vs {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vs)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mallocs returns the process's cumulative heap allocation count. It
// stops the world, so callers read it outside timed regions.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// heapSampler is a single goroutine that sleeps between reads of the
// runtime's heap figures and keeps their peaks. take ends a measurement
// window: it returns the window's peak heap and starts the next window.
type heapSampler struct {
	stop     chan struct{}
	done     chan struct{}
	peakHeap atomic.Uint64 // heap bytes in use by objects, garbage included
	peakLive atomic.Uint64 // live heap as of the last completed GC
}

func startHeapSampler(period time.Duration) *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	read := func() {
		rtmetrics.Read(samples)
		for i, p := range []*atomic.Uint64{&s.peakHeap, &s.peakLive} {
			v := samples[i].Value.Uint64()
			for old := p.Load(); v > old && !p.CompareAndSwap(old, v); old = p.Load() {
			}
		}
	}
	go func() {
		defer close(s.done)
		t := time.NewTimer(period)
		defer t.Stop()
		for {
			read()
			select {
			case <-s.stop:
				return
			case <-t.C:
				t.Reset(period)
			}
		}
	}()
	return s
}

// take returns the peak heap in use since the previous take, in bytes.
func (s *heapSampler) take() uint64 { return s.peakHeap.Swap(0) }

// Stop ends the sampler, waits for it, and returns the peak live heap
// over its whole life, in bytes.
func (s *heapSampler) Stop() uint64 {
	close(s.stop)
	<-s.done
	return s.peakLive.Load()
}

// counters is a snapshot of the program's metrics.Default registry.
type counters map[string]float64

// scrape reads every sample of the process-wide registry, keyed by the
// exposition's series name (labels included).
func scrape() counters {
	var b bytes.Buffer
	_ = metrics.Default.Write(&b) // writing to a bytes.Buffer cannot fail
	c := counters{}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			c[line[:i]] = v
		}
	}
	return c
}

// delta returns after[name] − before[name].
func delta(before, after counters, name string) float64 { return after[name] - before[name] }

// setupRounds is how often each workload sets up; setup_s is the median.
const setupRounds = 5

// loop is what timedLoop measured, one entry per iteration.
type loop struct {
	walls  []time.Duration
	allocs []uint64
	heaps  []float64 // peak heap in use, MB
}

// timedLoop runs iter after a GC until budget has elapsed (and at least
// minIters times), timing each call on its own, and runs check after
// each successful call. GC, check and the allocation count reads sit
// outside the timed region.
func timedLoop(budget time.Duration, minIters int, iter func() error, check func()) (loop, error) {
	var l loop
	sampler := startHeapSampler(2 * time.Millisecond)
	defer sampler.Stop()
	start := time.Now()
	for len(l.walls) < minIters || time.Since(start) < budget {
		runtime.GC()
		a0 := mallocs()
		sampler.take()
		t0 := time.Now()
		err := iter()
		wall := time.Since(t0)
		heap := sampler.take()
		a1 := mallocs()
		if err != nil {
			return l, err
		}
		l.walls = append(l.walls, wall)
		l.allocs = append(l.allocs, a1-a0)
		l.heaps = append(l.heaps, mb(heap))
		check()
	}
	return l, nil
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// mustJSON encodes v for bit-exact comparisons of results.
func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}
