package main

import "time"

// numSlices is how many equal slices a timed window is cut into. The
// gated latency and CPU metrics are medians over slices: a stall of the
// shared host moves one slice, not the metric. Throughput spans the
// whole window.
const numSlices = 20

// slicer accumulates a timed window slice by slice.
type slicer struct {
	start time.Time
	width time.Duration
	cpu   []time.Duration // CPU time of the process under test at each slice edge
	comp  []int           // valid replies that arrived in each slice
	lats  [][]float64     // latencies (ms) of requests sent or due in each slice
	// first and last are the arrival times of the first and last valid
	// reply inside the window.
	first, last time.Time
}

func newSlicer(start time.Time, dur time.Duration) *slicer {
	return &slicer{
		start: start,
		width: dur / numSlices,
		comp:  make([]int, numSlices),
		lats:  make([][]float64, numSlices),
	}
}

// index returns the slice holding t, or -1 outside the window.
func (s *slicer) index(t time.Time) int {
	if t.Before(s.start) {
		return -1
	}
	if i := int(t.Sub(s.start) / s.width); i < numSlices {
		return i
	}
	return -1
}

// watch sleeps through the window, reading the CPU time of the process
// under test at every slice edge.
func (s *slicer) watch(cpu func() (time.Duration, error)) error {
	for j := 0; j <= numSlices; j++ {
		time.Sleep(time.Until(s.start.Add(time.Duration(j) * s.width)))
		c, err := cpu()
		if err != nil {
			return err
		}
		s.cpu = append(s.cpu, c)
	}
	return nil
}

// add records one request: when it was sent (or due), when its reply
// arrived, its latency and whether the reply was valid.
func (s *slicer) add(sent, done time.Time, latMs float64, ok bool) {
	if i := s.index(done); i >= 0 && ok {
		s.comp[i]++
		if s.first.IsZero() || done.Before(s.first) {
			s.first = done
		}
		if done.After(s.last) {
			s.last = done
		}
	}
	if i := s.index(sent); i >= 0 {
		s.lats[i] = append(s.lats[i], latMs)
	}
}

// metrics fills the sliced end-to-end metrics.
func (s *slicer) metrics(m map[string]float64) {
	var p50, p90, cpu []float64
	total := 0
	for i := 0; i < numSlices; i++ {
		total += s.comp[i]
		p50 = append(p50, quantile(s.lats[i], 0.5))
		p90 = append(p90, quantile(s.lats[i], 0.9))
		cpu = append(cpu, share(ms(s.cpu[i+1]-s.cpu[i]), float64(s.comp[i])))
	}
	// Replies per second between the first and the last reply in the
	// window: under the open loop this is the arrival rate as served.
	m["ops_per_s"] = share(float64(total-1), s.last.Sub(s.first).Seconds())
	m["lat_p50_ms"] = median(p50)
	m["lat_p90_ms"] = median(p90)
	m["cpu_ms_per_op"] = median(cpu)
}
