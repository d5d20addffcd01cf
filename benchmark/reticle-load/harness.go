package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildServers compiles the real reticle-serve and reticle-shard
// binaries from the repository at root into binDir. It runs before any
// set-up clock starts: the state of the Go build cache is not a property
// of the program under test.
func buildServers(ctx context.Context, root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator),
		"./cmd/reticle-serve", "./cmd/reticle-shard")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build servers in %s: %w", root, err)
	}
	return nil
}

// findRoot walks up from dir to the repository root: the directory that
// holds both the server commands and this benchmark.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "reticle-serve", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the reticle repository: no cmd/reticle-serve above the working directory")
		}
		dir = parent
	}
}

// freeAddr picks a loopback port the kernel reports free and refuses it
// if something answers there anyway: a stale server from an earlier run
// would otherwise be measured in place of the child.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, refuseIfAnswers(addr)
}

func refuseIfAnswers(addr string) error {
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		return fmt.Errorf("port %s already answers; refusing to start a server on it", addr)
	}
	return nil
}

// proc is one server child.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returned
	log  *os.File
}

// cluster is the set of children one workload run talks to, with the
// temp directory that holds their disk tiers and logs.
type cluster struct {
	dir      string
	procs    []*proc
	front    string   // base URL the clients send to
	backends []string // reticle-serve base URLs (front itself when there is no router)
}

// clusterSpec says which processes a workload needs.
type clusterSpec struct {
	shard        bool // reticle-shard in front of two reticle-serve backends
	disk         bool // give every backend its own -disk directory
	cacheEntries int  // reticle-serve -cache; 0 keeps the default
}

// startCluster launches the children for spec and returns once every one
// answers /healthz. On any failure everything already started is stopped
// and the temp directory removed.
func startCluster(ctx context.Context, binDir, workDir string, spec clusterSpec) (c *cluster, err error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	c = &cluster{dir: dir}
	defer func() {
		if err != nil {
			c.stop()
			c = nil
		}
	}()
	nBackends := 1
	if spec.shard {
		nBackends = 2
	}
	for i := 0; i < nBackends; i++ {
		var args []string
		if spec.cacheEntries > 0 {
			args = append(args, "-cache", strconv.Itoa(spec.cacheEntries))
		}
		if spec.disk {
			args = append(args, "-disk", filepath.Join(dir, fmt.Sprintf("disk%d", i)))
		}
		p, err := c.spawn(filepath.Join(binDir, "reticle-serve"), fmt.Sprintf("serve%d", i), args)
		if err != nil {
			return c, err
		}
		c.backends = append(c.backends, p.url)
	}
	c.front = c.backends[0]
	if spec.shard {
		p, err := c.spawn(filepath.Join(binDir, "reticle-shard"), "shard",
			[]string{"-backends", strings.Join(c.backends, ",")})
		if err != nil {
			return c, err
		}
		c.front = p.url
	}
	for _, p := range c.procs {
		if err := p.waitHealthy(ctx, 30*time.Second); err != nil {
			return c, err
		}
	}
	return c, nil
}

func (c *cluster) spawn(bin, name string, args []string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(c.dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait() // exit status is irrelevant: stop() kills on purpose, waitHealthy reports early deaths
		close(p.done)
	}()
	c.procs = append(c.procs, p)
	return p, nil
}

// waitHealthy polls /healthz until it answers 200, the child dies, or
// the bound passes. No sleeps stand in for readiness.
func (p *proc) waitHealthy(ctx context.Context, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	client := &http.Client{Timeout: time.Second}
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it became healthy (log: %s)", p.name, p.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s", p.name, bound)
		}
	}
}

// stop kills every child, waits for each to end, and removes the temp
// directory. Safe on a partly started cluster and safe to call twice.
func (c *cluster) stop() {
	if c == nil {
		return
	}
	for _, p := range c.procs {
		p.cmd.Process.Kill()
	}
	for _, p := range c.procs {
		<-p.done
		p.log.Close()
	}
	c.procs = nil
	os.RemoveAll(c.dir)
}

// pids lists the children's process IDs.
func (c *cluster) pids() []int {
	out := make([]int, len(c.procs))
	for i, p := range c.procs {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux port Go supports.
const clockTick = 100

// cpuSeconds returns utime+stime of pid from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64) // field 14
	st, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed cpu fields in /proc/%d/stat", pid)
	}
	return (ut + st) / clockTick, nil
}

// cpuSecondsAll sums cpuSeconds over pids.
func cpuSecondsAll(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		s, err := cpuSeconds(pid)
		if err != nil {
			return 0, err
		}
		total += s
	}
	return total, nil
}

// statusMB sums one kB field of /proc/<pid>/status ("VmRSS", the current
// resident set, or "VmHWM", its high-water mark) over pids, in MB.
func statusMB(pids []int, field string) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		found := false
		for _, line := range strings.Split(string(raw), "\n") {
			if rest, ok := strings.CutPrefix(line, field+":"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("malformed %s for pid %d: %q", field, pid, line)
				}
				total += kb / 1024
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("no %s for pid %d", field, pid)
		}
	}
	return total, nil
}

// sample is one reading of the children: their summed CPU seconds and
// resident set at a moment.
type sample struct {
	at    time.Time
	cpu   float64
	rssMB float64
}

// sampleChildren reads the children once a second until stop is closed,
// reads them once more, then sends the samples on the returned channel.
// A reading that fails (a child died) is left out; measure reports the
// death.
func sampleChildren(pids []int, stop <-chan struct{}) <-chan []sample {
	out := make(chan []sample, 1)
	go func() {
		var samples []sample
		read := func() {
			s := sample{at: time.Now()}
			var err1, err2 error
			s.cpu, err1 = cpuSecondsAll(pids)
			s.rssMB, err2 = statusMB(pids, "VmRSS")
			if err1 == nil && err2 == nil {
				samples = append(samples, s)
			}
		}
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			read()
			select {
			case <-stop:
				read()
				out <- samples
				return
			case <-tick.C:
			}
		}
	}()
	return out
}
