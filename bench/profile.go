package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

// layers are the buckets a CPU sample can fall into. Every simulator
// package belongs to one; "runtime" takes the Go runtime and the
// standard library, "bench" this program.
var layers = []string{"sm", "exec", "sched", "reconv", "mem", "noc", "replay", "device", "kernels", "experiments", "runtime", "bench"}

// foldedInto names the layer whose work each smaller simulator package
// does.
var foldedInto = map[string]string{
	"isa": "exec", "fingerprint": "device", "faultinject": "device",
	"asm": "kernels", "cfg": "kernels", "progen": "kernels", "area": "experiments",
}

// layerOf attributes a function, as pprof names it, to a layer by the
// package it is declared in.
func layerOf(fn string) string {
	const internal = "repro/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg, _, _ := strings.Cut(fn[len(internal):], ".")
		if l, ok := foldedInto[pkg]; ok {
			return l
		}
		if slices.Contains(layers, pkg) {
			return pkg
		}
		return "runtime"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/bench."):
		return "bench"
	case strings.HasPrefix(fn, "repro."):
		return "device" // the public facade forwards to the device layer
	}
	return "runtime"
}

// cpuProfile collects a CPU profile of the process between start and
// stop, in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// shares stops the profile and returns each layer's share of the
// samples, attributed by the leaf function's package. It goes through
// `go tool pprof -top`, which needs the profile in a file; the file
// lives in the working directory for the length of the call.
func (p *cpuProfile) shares() (map[string]float64, error) {
	pprof.StopCPUProfile()
	f, err := os.CreateTemp(".", "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(p.buf.Bytes()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0", "-unit=ms", f.Name())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTop(string(out))
}

// parseTop reads pprof's -top table: after a header line starting with
// "flat", every row is "flat flat% sum% cum cum% function".
func parseTop(out string) (map[string]float64, error) {
	flat := map[string]float64{}
	total := 0.0
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if !inTable {
			inTable = len(fields) > 0 && fields[0] == "flat"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top row %q: %w", line, err)
		}
		flat[layerOf(strings.Join(fields[5:], " "))] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top reported no samples")
	}
	for l := range flat {
		flat[l] /= total
	}
	return flat, nil
}
