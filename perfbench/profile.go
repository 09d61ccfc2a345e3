package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuBuckets are the cpu.* shares of the traced run: repository
// packages by module, Go's scheduler and collector, the rest of the
// Go runtime, the standard library, and the benchmark itself.
var cpuBuckets = []string{
	"des", "board", "whiteboard", "strategy", "envpool", "core", "topology",
	"netsim", "netarena", "runtime", "sched", "serve", "faults", "other_repo",
	"go_sched", "go_gc", "go_other", "std", "bench",
}

// repoBucket maps a repository package path to its bucket.
func repoBucket(pkg string) string {
	mod := strings.TrimPrefix(pkg, "hypersearch/internal/")
	if mod == pkg {
		return "other_repo"
	}
	mod, _, _ = strings.Cut(mod, "/")
	switch mod {
	case "des", "board", "whiteboard", "strategy", "envpool", "core",
		"netsim", "netarena", "runtime", "sched", "serve", "faults":
		return mod
	case "hypercube", "heapqueue", "graph", "bits":
		return "topology"
	}
	return "other_repo"
}

// gcFrames mark a sample as garbage-collector work wherever they sit
// in its stack.
var gcFrames = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.gcAssistAlloc1": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcStart": true,
	"runtime.gcMarkDone": true, "runtime.gcMarkTermination": true, "runtime.markroot": true,
	"runtime.gcDrain": true, "runtime.gcDrainN": true, "runtime.sweepone": true,
}

// schedFrames mark a sample as goroutine scheduling — parking,
// readying, channel and semaphore hand-off — when they sit in the run
// of runtime frames at the top of its stack.
var schedFrames = map[string]bool{
	"runtime.gopark": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.schedule": true, "runtime.park_m": true, "runtime.mcall": true,
	"runtime.findRunnable": true, "runtime.goexit0": true, "runtime.gosched_m": true,
	"runtime.wakep": true, "runtime.startm": true, "runtime.stopm": true,
	"runtime.chansend": true, "runtime.chanrecv": true, "runtime.chansend1": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.selectnbsend": true, "runtime.selectnbrecv": true, "runtime.closechan": true,
	"runtime.semacquire1": true, "runtime.semrelease1": true, "runtime.notifyListWait": true,
	"runtime.notifyListNotifyAll": true, "runtime.notifyListNotifyOne": true,
	"runtime.newproc": true, "runtime.newproc1": true, "runtime.systemstack": true,
	"runtime.futexsleep": true, "runtime.futexwakeup": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.runqsteal": true, "runtime.runqgrab": true,
	"runtime.resetspinning": true, "runtime.execute": true, "runtime.gogo": true,
}

// pkgOf returns the package path of a symbol such as
// "hypersearch/internal/des.(*Sim).Run", "runtime.gopark" or a generic
// "hypersearch/internal/netsim.(*queue[go.shape...]).push".
func pkgOf(fn string) string {
	head := fn // type arguments and receivers may hold slashes of their own
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		head = fn[:i]
	}
	slash := strings.LastIndex(head, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// runtimeish reports whether a package is Go's runtime or its
// low-level support, whose frames are charged to their caller unless
// they are scheduling or collection.
func runtimeish(pkg string) bool {
	return pkg == "runtime" || pkg == "sync" || pkg == "sync/atomic" ||
		strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "runtime/")
}

// bucketOf classifies one sample by its stack, leaf first: collector
// work anywhere in the stack, then scheduling in the runtime frames at
// its top, then the innermost repository (or benchmark) frame, so a
// standard-library call such as JSON encoding is charged to the
// module that made it.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if gcFrames[fn] {
			return "go_gc"
		}
	}
	for _, fn := range stack {
		if !runtimeish(pkgOf(fn)) {
			break
		}
		if schedFrames[fn] {
			return "go_sched"
		}
	}
	bucket := "go_other"
	for _, fn := range stack {
		switch pkg := pkgOf(fn); {
		case pkg == "main":
			return "bench"
		case strings.HasPrefix(pkg, "hypersearch/"):
			return repoBucket(pkg)
		case !runtimeish(pkg):
			bucket = "std"
		}
	}
	return bucket
}

// profile is a CPU profile being taken into memory.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and reduces it to the share of CPU time in
// each bucket.
func (p *profile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	samples, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		shares[bucketOf(s.stack)] += float64(s.value)
		total += float64(s.value)
	}
	if total > 0 {
		for b := range shares {
			shares[b] /= total
		}
	}
	return shares, nil
}

// sample is one decoded profile sample: its stack of function names,
// leaf first, and its CPU time.
type sample struct {
	stack []string
	value int64
}

// decodeProfile reads the parts of a pprof protobuf (profile.proto)
// the cpu shares need: samples, locations, functions and strings.
func decodeProfile(b []byte) ([]sample, error) {
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		raws    []rawSample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnNames = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err := pbFields(b, func(num, wire int, v uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					return pbVarints(wire, v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbVarints(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return pbFields(data, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(raws))
	for _, r := range raws {
		if len(r.values) == 0 {
			continue
		}
		s := sample{value: r.values[len(r.values)-1]}
		for _, loc := range r.locs {
			for _, fn := range locFns[loc] {
				if i := fnNames[fn]; i >= 0 && int(i) < len(strs) {
					s.stack = append(s.stack, strs[i])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errProto = errors.New("malformed protobuf")

// pbFields walks the fields of one protobuf message. Varint fields
// arrive in v, length-delimited ones in data; fixed-width fields are
// skipped.
func pbFields(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints reads a repeated varint field in either its packed or its
// one-per-field encoding.
func pbVarints(wire int, v uint64, data []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		fn(x)
		data = data[n:]
	}
	return nil
}
