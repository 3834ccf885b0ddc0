//go:build linux

package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// dist collects duration samples in nanoseconds (or any unit the caller
// keeps consistent). The zero value is ready to use; it is not safe for
// concurrent use on its own.
type dist struct {
	vals []float64
	sum  float64
}

func (d *dist) add(v float64) {
	d.vals = append(d.vals, v)
	d.sum += v
}

func (d *dist) addDur(t time.Duration) { d.add(float64(t.Nanoseconds())) }

func (d *dist) merge(o *dist) {
	d.vals = append(d.vals, o.vals...)
	d.sum += o.sum
}

func (d *dist) n() int { return len(d.vals) }

func (d *dist) mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	return d.sum / float64(len(d.vals))
}

// quantile returns the nearest-rank q-quantile, 0 when empty.
func (d *dist) quantile(q float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	s := append([]float64(nil), d.vals...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// ladder returns a distribution's percentiles in milliseconds, for the
// informational sample lines.
func ladder(d *dist) map[string]float64 {
	s := append([]float64(nil), d.vals...)
	sort.Float64s(s)
	out := make(map[string]float64)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		out[fmt.Sprintf("p%g", q*100)] = quantileSorted(s, q) / 1e6
	}
	return out
}

// median of a small slice (interpolated between the middle pair).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMiB forces a collection and returns the live heap it left, in
// MiB, from runtime/metrics. Called where a workload holds the most, it
// reads the peak live heap without depending on when the collector last
// happened to run.
func liveHeapMiB() float64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// sleeper waits with sub-millisecond precision without holding a
// scheduler P. A blocking nanosleep would keep its P until the runtime
// retakes it, stealing CPU from the system under test. A runtime timer is
// precise while the process is busy (every scheduling round checks
// timers) but rounds short waits up to 1 ms when all Ps are idle and the
// runtime blocks in the netpoller. A timerfd read is the reverse: the
// kernel wakes the idle netpoller on time, but a saturated process polls
// the network only every ~10 ms. sleep waits on both and returns at the
// first.
type sleeper struct {
	fd    int
	f     *os.File
	fired chan struct{}
	done  chan struct{}
}

func newSleeper() (*sleeper, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, 0x800, 0x80000
	fd, _, errno := syscall.Syscall(sysTimerfdCreate, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	s := &sleeper{fd: int(fd), f: os.NewFile(fd, "timerfd"), fired: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		var buf [8]byte
		for {
			if _, err := s.f.Read(buf[:]); err != nil {
				return // closed
			}
			select {
			case s.fired <- struct{}{}:
			default:
			}
		}
	}()
	return s, nil
}

// sleep waits for d (returns at once for d <= 0). A timerfd expiry left
// over from an earlier call can end a wait early, which only costs one
// extra poll.
func (s *sleeper) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	select {
	case <-s.fired:
	default:
	}
	// struct itimerspec: interval (zero: one-shot), then value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	if _, _, errno := syscall.Syscall6(sysTimerfdSettime, uintptr(s.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.fired:
	}
	return nil
}

// close releases the timerfd and waits for its reader to exit.
func (s *sleeper) close() {
	s.f.Close() //nolint:errcheck // read-only fd
	<-s.done
}

// cpuModel reads the CPU model name, "unknown" when unavailable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
