package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one arbalestd process started by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// exited is closed once the process has been reaped.
	exited chan struct{}
	// workers is the daemon's job-pool size; with the default -workers it
	// equals the daemon's GOMAXPROCS.
	workers int
}

// startDaemon execs arbalestd on a free loopback port with a fresh spool
// under dir, every other flag at its default, and returns once GET /readyz
// answers 200. setup is the time from exec to that answer.
func startDaemon(bin, dir string) (d *daemon, setup time.Duration, err error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	spool, err := os.MkdirTemp(dir, "spool-")
	if err != nil {
		return nil, 0, err
	}
	out, err := os.Create(filepath.Join(spool, "stdout.log"))
	if err != nil {
		return nil, 0, err
	}
	defer out.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	d = &daemon{
		// The daemon logs a line per job; stderr goes to the null device so
		// the benchmark measures the logging but not a full disk.
		cmd:    exec.Command(bin, "-addr", addr, "-spool", spool),
		base:   "http://" + addr,
		exited: make(chan struct{}),
	}
	d.cmd.Stdout = out
	// If the benchmark dies without stopping the daemon, the kernel does.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start arbalestd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // the exit status of a daemon we stop is not news
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("arbalestd exited before it was ready (see %s)", out.Name())
		default:
		}
		if resp, err := probe.Get(d.base + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("arbalestd not ready after 30s")
		}
		// Start-up takes a few milliseconds: poll finely, or the poll
		// period would be most of what is measured.
		time.Sleep(100 * time.Microsecond)
	}
	setup = time.Since(start)
	probe.CloseIdleConnections()
	d.workers = readWorkers(out.Name())
	return d, setup, nil
}

var workersRE = regexp.MustCompile(`\((\d+) workers`)

// readWorkers parses the pool size from the daemon's "listening on" line;
// 0 if the line is missing.
func readWorkers(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := workersRE.FindStringSubmatch(sc.Text()); m != nil {
			n, _ := strconv.Atoi(m[1])
			return n
		}
	}
	return 0
}

// stop shuts the daemon down gracefully (SIGTERM drains accepted work),
// kills it if it has not exited within ten seconds, and waits until it is
// gone.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMiB returns the daemon's peak resident set size so far.
func (d *daemon) peakRSSMiB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// vmHWM reads the VmHWM (peak resident set) line of a /proc status file,
// in MiB.
func vmHWM(statusPath string) (float64, error) {
	data, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// fsMagic names the filesystems a spool is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683e: "btrfs",
	0x6969:     "nfs",
}

// fsType names the filesystem holding dir, as statfs reports it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("%#x", st.Type)
}
