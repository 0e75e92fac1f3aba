package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(q*float64(len(xs))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// groupedQuantile splits xs, in time order, into as many consecutive
// groups of at least minGroup samples as it holds, takes the q-quantile
// of each, and returns their median: one stalled stretch of a run moves
// one group, not the result.
func groupedQuantile(xs []float64, q float64, minGroup int) float64 {
	k := len(xs) / minGroup
	if k < 2 {
		return quantile(append([]float64(nil), xs...), q)
	}
	var qs []float64
	for g := 0; g < k; g++ {
		qs = append(qs, quantile(append([]float64(nil), xs[g*len(xs)/k:(g+1)*len(xs)/k]...), q))
	}
	return median(qs)
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is this process's user+system CPU time (getrusage), which
// covers the serving stack and the load generator alike.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuTicks reads the host's aggregate CPU line from /proc/stat and
// returns the ticks stolen by the hypervisor and the total.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// promSample is one scraped exposition: series name (with its label
// set, verbatim) to value.
type promSample map[string]float64

// scrape reads a Prometheus text exposition from url+"/metrics".
func scrape(c *http.Client, url string) (promSample, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}

func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] += v
	}
	return out, sc.Err()
}

// sum adds every series whose name (before any label set) is name and
// whose label text contains each of the given fragments.
func (p promSample) sum(name string, labels ...string) float64 {
	total := 0.0
	for k, v := range p {
		base, lab := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			base, lab = k[:i], k[i:]
		}
		if base != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// scrapeAll scrapes every backend and the router (if any), merging the
// backend expositions by summing like-named series.
func scrapeAll(st *stack) (backends, front promSample, err error) {
	backends = promSample{}
	for _, u := range st.backends {
		p, err := scrape(st.client, u)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range p {
			backends[k] += v
		}
	}
	front = promSample{}
	if st.router != nil {
		if front, err = scrape(st.client, st.url); err != nil {
			return nil, nil, err
		}
	}
	return backends, front, nil
}
