package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// hostInfo is recorded with every result, so that "the bench host changed" is
// read off the output and not guessed.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	DataFS     string  `json:"data_fs,omitempty"`
	SignUs     float64 `json:"cryptoutil_sign_us"`
	VerifyUs   float64 `json:"cryptoutil_verify_us"`
}

func readHost() hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Commit:     gitCommit("."),
	}
}

func firstLine(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD from the checkout's .git directory without spawning
// git; a checkout that is not a repository reports "unknown".
func gitCommit(root string) string {
	head := firstLine(filepath.Join(root, ".git", "HEAD"))
	if ref, ok := strings.CutPrefix(head, "ref: "); ok {
		head = firstLine(filepath.Join(root, ".git", ref))
	}
	if len(head) < 7 || head == "unknown" {
		return "unknown"
	}
	return head
}

// Filesystem magic numbers statfs reports (linux/magic.h).
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext2/ext3/ext4",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x858458f6: "ramfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) (string, error) {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "", err
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name, nil
	}
	return fmt.Sprintf("0x%x", int64(st.Type)), nil
}

// preflight rejects a run that could not produce comparable numbers: fewer
// CPUs than closed-loop clients, a data directory that cannot be written or
// that lives in memory (fsync would be free), or an op count too small for the
// reported percentile. It returns the data directory's filesystem type.
func preflight(spec workloadSpec, ops int, dataRoot string) (string, error) {
	if n := runtime.NumCPU(); n < clients {
		return "", fmt.Errorf("preflight: %d CPUs, the benchmark runs %d closed-loop clients", n, clients)
	}
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return "", fmt.Errorf("preflight: data dir: %w", err)
	}
	probe, err := os.CreateTemp(dataRoot, "preflight-*")
	if err != nil {
		return "", fmt.Errorf("preflight: data dir %s is not writable: %w", dataRoot, err)
	}
	err = errors.Join(probe.Sync(), probe.Close(), os.Remove(probe.Name()))
	if err != nil {
		return "", fmt.Errorf("preflight: data dir %s: %w", dataRoot, err)
	}
	fs, err := fsType(dataRoot)
	if err != nil {
		return "", fmt.Errorf("preflight: statfs %s: %w", dataRoot, err)
	}
	if fs == "tmpfs" || fs == "ramfs" {
		return fs, fmt.Errorf("preflight: data dir %s is on %s, where fsync is free; use -data-dir on a disk", dataRoot, fs)
	}
	if ops%spec.Quantum != 0 || ops < spec.Quantum {
		return fs, fmt.Errorf("preflight: %s runs a multiple of %d ops, got %d", spec.Name, spec.Quantum, ops)
	}
	return fs, nil
}

// minSamples is the sample count below which p90 has fewer than ten samples
// beyond it.
const minSamples = 100

// checkSamples rejects an op count whose p90 would rest on fewer than ten
// samples. The smoke test runs below it on purpose and skips the check.
func checkSamples(spec workloadSpec, ops int) error {
	if samples := ops / spec.SampleOps; samples < minSamples {
		return fmt.Errorf("preflight: %d ops give %s %d latency samples; p90 needs %d to have ten beyond it",
			ops, spec.Name, samples, minSamples)
	}
	return nil
}
