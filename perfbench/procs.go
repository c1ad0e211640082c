package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one child process of the serving stack.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// topology is a running serving stack: one standalone simrankd, or a
// leader and a follower behind simproxy.
type topology struct {
	daemons  []*daemon // every child; replicas first, proxy last
	replicas []*daemon // simrankd processes, leader first
	front    string    // base URL the load generator talks to
}

// stackConfig says how to launch a stack.
type stackConfig struct {
	bin        string // directory holding simrankd and simproxy
	logs       string // directory for the children's stderr
	graph      string // edge-list file every replica serves
	cluster    bool
	traceRing  int // -trace-queries; 0 switches span recording off
	gomaxprocs int
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// launch starts one child with its stderr in a log file. The child is
// killed if the benchmark dies without stopping it.
func (c stackConfig) launch(name, prog string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(filepath.Join(c.logs, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(filepath.Join(c.bin, prog), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(c.gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// waitReady polls path on the child until ready accepts its answer, the
// child exits, or ctx ends.
func waitReady(ctx context.Context, d *daemon, path string, ready func(status int, body map[string]any) bool) error {
	client := &http.Client{Timeout: time.Second}
	for {
		if resp, err := client.Get(d.url + path); err == nil {
			var body map[string]any
			_ = json.NewDecoder(resp.Body).Decode(&body) // a probe with an undecodable body is simply not ready
			resp.Body.Close()
			if ready(resp.StatusCode, body) {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited before it was ready: %v (see its log)", d.name, d.err)
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", d.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func healthy(status int, _ map[string]any) bool { return status == http.StatusOK }

// startStack launches a stack and returns it with its set-up time: from
// the first launch until every replica is routable (cluster) or /healthz
// answers 200 (standalone). Replicas start one after the other, so the
// follower never has to back off while the leader is still loading.
func startStack(ctx context.Context, c stackConfig) (*topology, time.Duration, error) {
	t0 := time.Now()
	top := &topology{}
	replica := func(name string, args ...string) (*daemon, error) {
		args = append([]string{"-graph", c.graph, "-trace-queries", strconv.Itoa(c.traceRing),
			"-eps", fmt.Sprint(optEps), "-delta", fmt.Sprint(optDelta), "-c", fmt.Sprint(optC),
			"-seed", fmt.Sprint(optSeed), "-log-level", "warn", "-grace", "5s"}, args...)
		d, err := c.launch(name, "simrankd", args...)
		if err != nil {
			return nil, err
		}
		top.daemons = append(top.daemons, d)
		top.replicas = append(top.replicas, d)
		return d, waitReady(ctx, d, "/healthz", healthy)
	}
	fail := func(err error) (*topology, time.Duration, error) {
		top.stop()
		return nil, 0, err
	}
	if !c.cluster {
		d, err := replica("simrankd")
		if err != nil {
			return fail(err)
		}
		top.front = d.url
		return top, time.Since(t0), nil
	}
	leader, err := replica("leader", "-lead")
	if err != nil {
		return fail(err)
	}
	follower, err := replica("follower", "-follow", leader.url)
	if err != nil {
		return fail(err)
	}
	proxy, err := c.launch("simproxy", "simproxy", "-policy", "hash", "-log-level", "warn", "-grace", "5s",
		"-replicas", leader.url+","+follower.url)
	if err != nil {
		return fail(err)
	}
	top.daemons = append(top.daemons, proxy)
	top.front = proxy.url
	err = waitReady(ctx, proxy, "/healthz", func(status int, body map[string]any) bool {
		routable, _ := body["routable"].(float64)
		return status == http.StatusOK && int(routable) == len(top.replicas)
	})
	if err != nil {
		return fail(err)
	}
	return top, time.Since(t0), nil
}

// stop shuts every child down, proxy first: SIGTERM, then SIGKILL for any
// child that has not drained within ten seconds. It returns once every
// child has been waited for.
func (t *topology) stop() {
	if t == nil {
		return
	}
	for i := len(t.daemons) - 1; i >= 0; i-- {
		d := t.daemons[i]
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	t.daemons, t.replicas = nil, nil
}

// cpu returns the user+system CPU time every child has used so far.
func (t *topology) cpu() (time.Duration, error) {
	var total time.Duration
	for _, d := range t.daemons {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name: state is the first,
		// utime the 12th and stime the 13th.
		s := string(raw)
		fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat for %s", d.name)
		}
		for _, f := range fields[11:13] {
			ticks, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, err
			}
			total += time.Duration(ticks) * time.Second / clockTicks
		}
	}
	return total, nil
}

// peakRSS returns the summed VmHWM (peak resident set) of every child, in
// MiB.
func (t *topology) peakRSS() (float64, error) {
	total := 0.0
	for _, d := range t.daemons {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, err
				}
				total += kb / 1024
				found = true
			}
		}
		if !found {
			return 0, fmt.Errorf("no VmHWM for %s", d.name)
		}
	}
	return total, nil
}
