package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
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

// outDir holds everything a run leaves behind: the built daemon, tenant data
// directories and span files. It is relative to this directory, where both
// `go run -C benchmark` and `go test` run the harness, and is git-ignored.
const outDir = "out"

// buildDaemon compiles cmd/jetstreamd of the checkout this module sits in
// (go.mod replaces jetstream with ../) and returns the binary's path and how
// long the build took.
func buildDaemon(ctx context.Context) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "bin", "jetstreamd"))
	if err != nil {
		return "", 0, err
	}
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "jetstream/cmd/jetstreamd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("build jetstreamd: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// daemon is one jetstreamd child process serving a data directory.
type daemon struct {
	bin     string
	dataDir string
	addr    string
	cmd     *exec.Cmd
	stderr  bytes.Buffer
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon executes the daemon and waits until /healthz answers.
func startDaemon(ctx context.Context, bin, dataDir, addr string) (*daemon, error) {
	d := &daemon{bin: bin, dataDir: dataDir, addr: addr}
	d.cmd = exec.CommandContext(ctx, bin, "-addr", addr, "-data-dir", dataDir, "-queue-depth", "8")
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start jetstreamd: %w", err)
	}
	if err := d.waitHealthy(ctx); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitHealthy polls /healthz until it answers 200 or 30 s pass.
func (d *daemon) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		resp, err := http.Get(d.url("/healthz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("jetstreamd not healthy after 30s: %s", d.stderr.String())
}

// tenants lists the daemon's live tenant names.
func (d *daemon) tenants() ([]string, error) {
	resp, err := http.Get(d.url("/v1/tenants"))
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	var out struct {
		Tenants []string `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Tenants, nil
}

// kill sends SIGKILL and reaps the child.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// terminate sends SIGTERM and waits for the graceful shutdown to finish.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("jetstreamd shutdown: %w: %s", err, d.stderr.String())
	}
	return nil
}

// peakRSSMB reads the child's high-water resident set from /proc.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// peakRSSMB returns VmHWM of pid in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer func() { _ = f.Close() }()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// fsType names the filesystem holding dir, from /proc/self/mountinfo (the
// longest mount point that prefixes dir). WAL fsync figures only mean
// something next to it.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer func() { _ = f.Close() }()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "36 35 98:0 /mnt1 /mnt2 rw,noatime master:1 - ext3 /dev/root rw"
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		pf, qf := strings.Fields(pre), strings.Fields(post)
		if !ok || len(pf) < 5 || len(qf) < 1 {
			continue
		}
		mp := pf[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, qf[0]
		}
	}
	return typ
}
