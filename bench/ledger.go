package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// layerOf maps a hic/internal package to its ledger layer. Packages
// absent here (stats, model, obs, telemetry, ...) are charged to their
// hic caller, like standard-library frames.
var layerOf = map[string]string{
	"sim": "sim", "pkt": "pkt", "nic": "nic", "pcie": "pcie", "iommu": "iommu",
	"mem": "mem", "antagonist": "mem", "cpu": "cpu", "fabric": "fabric",
	"transport": "transport", "sender": "transport", "host": "host", "core": "core",
	"metrics": "metrics", "fluid": "fluid", "fidelity": "fidelity", "runner": "runner",
	"runcache": "runcache", "cluster": "cluster", "serve": "serve",
}

// attribute names the ledger row one stack (leaf first) is charged to.
// The rows are exclusive: allocation beats GC beats the innermost layer.
// The benchmark's own frames (its sink, timers and output checks) end
// the search in "other", so instrumentation is never charged to a layer.
func attribute(stack []string) string {
	for _, fn := range stack {
		if fn == "runtime.mallocgc" {
			return "runtime.alloc"
		}
	}
	for _, fn := range stack {
		switch fn {
		case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
			return "runtime.gc"
		}
	}
	const prefix = "hic/internal/"
	for _, fn := range stack {
		if strings.HasPrefix(fn, "main.") {
			return "other"
		}
		if !strings.HasPrefix(fn, prefix) {
			continue
		}
		pkg := fn[len(prefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if layer, ok := layerOf[pkg]; ok {
			return layer
		}
	}
	return "other"
}

// readLedger reduces a CPU profile to each ledger row's share of
// sampled CPU time, in percent, with every row present. It also
// returns the sample count.
func readLedger(path string) (map[string]float64, int, error) {
	stacks, err := readProfile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("reading %s: %w", path, err)
	}
	ledger := map[string]float64{"runtime.alloc": 0, "runtime.gc": 0, "other": 0}
	for _, layer := range layerOf {
		ledger[layer] = 0
	}
	var total float64
	for _, s := range stacks {
		ledger[attribute(s.frames)] += s.cpu
		total += s.cpu
	}
	if total > 0 {
		for k := range ledger {
			ledger[k] *= 100 / total
		}
	}
	return ledger, len(stacks), nil
}

// sample is one profile sample: its stack, leaf first, and CPU time.
type sample struct {
	frames []string
	cpu    float64
}

// readProfile decodes the gzipped protobuf a runtime/pprof CPU profile
// is written as, keeping only what the ledger needs: each sample's
// function names and its last value (CPU nanoseconds).
func readProfile(path string) ([]sample, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	type rawSample struct {
		locs []uint64
		cpu  float64
	}
	var (
		samples   []rawSample
		strs      []string
		funcNames = map[uint64]uint64{}   // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					if vals := appendPacked(nil, v, b); len(vals) > 0 {
						s.cpu = float64(int64(vals[len(vals)-1]))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i < uint64(len(strs)) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, sample{frames, s.cpu})
	}
	return out, nil
}

// appendPacked appends a repeated varint field's values, whether it
// arrived packed (b) or as one unpacked element (v).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// fields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}
