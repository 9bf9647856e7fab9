package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// median returns the middle of xs (mean of the two middle values for an even
// count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs, up to p99, that still has at
// least ten samples beyond it, with the percentile it reports. When that
// percentile would fall below the median (fewer than 21
// samples), it returns the upper median instead.
func tail(xs []float64) (value, pct float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	k := int(math.Ceil(0.99*float64(n))) - 1
	if k > n-11 {
		k = n - 11
	}
	if k < n/2 {
		k = n / 2
	}
	return s[k], 100 * float64(k+1) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }

// runtime/metrics names read by the benchmark. Reading them does not stop
// the world, so sampling does not perturb the measured jobs.
const (
	allocsMetric = "/gc/heap/allocs:bytes"
	heapMetric   = "/memory/classes/heap/objects:bytes"
)

// allocBytes returns the cumulative bytes allocated on the heap.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: allocsMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapObjectBytes returns the bytes of heap objects, live or not yet swept.
func heapObjectBytes() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the peak of live-plus-unswept heap object bytes by
// polling every few milliseconds between start and stop.
type heapSampler struct {
	stopc chan struct{}
	wg    sync.WaitGroup
	peak  uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if v := heapObjectBytes(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in MB.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}
