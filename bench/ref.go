package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"
)

// refNominalMS is what the reference kernel takes on a quiet machine of
// the class the benchmark was sized on (2 vCPU Firecracker guest, Xeon
// 2.1 GHz). It only fixes the unit of "reference speed": a time measured
// while the kernel took twice as long is reported halved. On another class
// of machine every time shifts by one factor, which no comparison between
// two commits on the same machine sees.
const refNominalMS = 6.9

// refSink and refKeep keep the kernel's results alive.
var (
	refSink uint64
	refKeep []int
)

// refSample is one reading of the reference kernel: what it took on the
// clock and in CPU time. The two part company when the host takes the vCPU
// away: the guest does not count that as CPU time. So spans of wall time
// are scaled by WallMS and spans of CPU time by CPUMS; scaled by the wall
// reading, cpu_us_per_run halved through a quarter of an hour in which the
// host ran every op at half speed on the clock and at full speed in CPU
// time.
type refSample struct {
	WallMS float64 `json:"wall_ms"`
	CPUMS  float64 `json:"cpu_ms"`
}

// refKernel times a fixed piece of work: dependent random reads and
// writes over a 128 KiB working set (beyond L1, within L2), then 96 Ki
// small allocations folded into a map (twice the time of the first leg).
// On a shared host the program's own times swing by tens of percent within
// seconds; this kernel swings with them — a pure ALU loop does not, nor
// does streaming through a preallocated arena — so dividing a span by the
// kernel's time around it cancels most of the swing. README.md has the
// measurements behind the choice.
func refKernel() (wall, cpu time.Duration) {
	c0 := processCPU()
	t0 := time.Now()
	buf := make([]uint64, 1<<14)
	mask := uint64(len(buf) - 1)
	x := uint64(88172645463325252)
	for i := 0; i < 1<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & mask
		buf[j] += x
		refSink += buf[(j*7)&mask]
	}
	m := make(map[uint64]int, 64)
	for i := 0; i < 3<<15; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := make([]int, 8)
		v[0] = int(x)
		m[x&1023] += v[0]
		if i&255 == 0 {
			refKeep = v // v escapes, so every one of them is a heap allocation
		}
	}
	refSink += uint64(len(m))
	return time.Since(t0), processCPU() - c0
}

// serveRef is the reference process (-refserver). The kernel runs here and
// not in the process under test, so that nothing the program does to its
// own heap — garbage, sweep debt, retained jobs — can move the number every
// time is divided by: only the machine can. The collector is off for good
// (which also stops the scavenger returning the heap to the system), every
// sample's garbage is collected before the answer goes out, and nothing
// else ever runs here, so each sample starts from the same heap. One
// request byte in, the kernel's wall and CPU nanoseconds out, until the
// requests end.
func serveRef(in io.Reader, out io.Writer) error {
	debug.SetGCPercent(-1)
	req := bufio.NewReader(in)
	for {
		if _, err := req.ReadByte(); err != nil {
			return nil // the driver and its children are gone
		}
		wall, cpu := refKernel()
		runtime.GC()
		if _, err := fmt.Fprintf(out, "%d %d\n", wall.Nanoseconds(), cpu.Nanoseconds()); err != nil {
			return err
		}
	}
}

// refServer is the driver's handle on the reference process. Children
// reach it through two inherited pipe ends: requests on descriptor 3,
// answers on 4. One child runs at a time, so they never interleave.
type refServer struct {
	cmd      *exec.Cmd
	req, rep *os.File // the children's ends
}

func startRefServer(exe string) (*refServer, error) {
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	repR, repW, err := os.Pipe()
	if err != nil {
		reqR.Close()
		reqW.Close()
		return nil, err
	}
	cmd := exec.Command(exe, "-refserver")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdin, cmd.Stdout, cmd.Stderr = reqR, repW, os.Stderr
	err = startPinned(cmd)
	reqR.Close()
	repW.Close()
	if err != nil {
		reqW.Close()
		repR.Close()
		return nil, fmt.Errorf("reference process: %w", err)
	}
	return &refServer{cmd: cmd, req: reqW, rep: repR}, nil
}

// stop ends the requests, which ends the process, and waits for it.
func (s *refServer) stop() error {
	s.req.Close()
	s.rep.Close()
	return s.cmd.Wait()
}

// refMinGap is the least time between two samples. The kernel reads up to
// a third faster when the reference process last ran a moment ago (4.7 ms
// back to back, 6.1 ms after 10 ms, 6.8–7.1 ms from 20 ms to 300 ms of
// anything else on its CPU), and a sample must not depend on how long the
// span before it was. The end-to-end slices are longer than this anyway;
// the traced run's spans are not.
const refMinGap = 30 * time.Millisecond

// refClient is a child's end of the reference process.
type refClient struct {
	req  io.Writer
	rep  *bufio.Reader
	last time.Time // when the last sample came back
	// minGap is refMinGap, or nothing in the smoke test, whose numbers
	// nobody reads.
	minGap time.Duration
	// err is the first failure; after it every sample reads the nominal
	// times, and the pass reports err instead of its numbers.
	err error
}

// openRefClient is a child's client, on the descriptors the driver passed
// it.
func openRefClient(minGap time.Duration) *refClient {
	return &refClient{req: os.NewFile(3, "ref-requests"), rep: bufio.NewReader(os.NewFile(4, "ref-answers")), minGap: minGap}
}

// sample asks the reference process for one reading of the kernel.
func (c *refClient) sample() refSample {
	nominal := refSample{refNominalMS, refNominalMS}
	if c.err != nil {
		return nominal
	}
	for time.Since(c.last) < c.minGap {
		// Spin: asleep, the CPU would idle, and the kernel reads slower
		// and less steadily on a CPU that has just woken up.
	}
	defer func() { c.last = time.Now() }()
	if _, err := c.req.Write([]byte{'\n'}); err != nil {
		c.err = fmt.Errorf("reference process (a child is started by the driver, never by hand): %w", err)
		return nominal
	}
	line, err := c.rep.ReadString('\n')
	if err != nil {
		c.err = fmt.Errorf("reference process: %w", err)
		return nominal
	}
	var wall, cpu int64
	if n, _ := fmt.Sscanf(line, "%d %d", &wall, &cpu); n != 2 || wall <= 0 || cpu <= 0 {
		c.err = fmt.Errorf("reference process answered %q", line)
		return nominal
	}
	return refSample{float64(wall) / float64(time.Millisecond), float64(cpu) / float64(time.Millisecond)}
}

// gcDrain waits for a collection in flight to finish; it starts none.
// (Disabling the collector returns only once no cycle is running.) It
// keeps a cycle the harness's own garbage started — inputs, encoded stats —
// out of the slice that follows, and off the CPU while the reference
// process, which shares it, takes a sample.
func gcDrain() { debug.SetGCPercent(debug.SetGCPercent(-1)) }
