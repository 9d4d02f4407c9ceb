package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"vsystem/internal/sim"
	"vsystem/internal/trace"
)

// staleQuery drops a select query that never saw a choice (the selection
// failed) so it cannot pair with a later one.
const staleQuery = 5 * time.Second

// subscribe records the traced run's child spans from the cluster's own
// trace: each EvSelectQuery→EvSelectChoice pair of a station becomes a
// select span, and every published migration phase a phase span. Parents
// are attached by resolveParents once the run is over.
func (b *bench) subscribe() {
	open := map[uint16][]sim.Time{}
	b.c.Trace.Subscribe(func(ev trace.Event) {
		switch ev.Kind {
		case trace.EvSelectQuery:
			open[ev.Host] = append(open[ev.Host], ev.At)
		case trace.EvSelectChoice:
			q := open[ev.Host]
			for len(q) > 0 && ev.At.Sub(q[0]) > staleQuery {
				q = q[1:]
			}
			if len(q) == 0 {
				return
			}
			b.spans = append(b.spans, span{Name: "select", Job: -1, Parent: -1,
				Start: q[0], End: ev.At, Done: true, Host: ev.Host})
			open[ev.Host] = q[1:]
		}
	})
	b.c.Trace.SubscribeSpans(func(s trace.Span) {
		b.spans = append(b.spans, span{Name: "phase." + s.Phase.String(), Job: -1, Parent: -1,
			Start: s.Start, End: s.End, Done: true, LH: s.LH})
	})
}

// resolveParents attaches each traced child to the benchmark span that
// caused it: a select to the exec of the same station that encloses it, a
// migration phase to the migrate of the same logical host that encloses it.
func (b *bench) resolveParents() {
	for i := range b.spans {
		ch := &b.spans[i]
		if ch.Parent >= 0 || (ch.Name != "select" && !strings.HasPrefix(ch.Name, "phase.")) {
			continue
		}
		for j, p := range b.spans {
			if !p.Done || p.Start > ch.Start || p.End < ch.End {
				continue
			}
			if (ch.Name == "select" && p.Name == "exec" && p.Host == ch.Host) ||
				(ch.Name != "select" && p.Name == "migrate" && p.LH == ch.LH) {
				ch.Parent, ch.Job = j, p.Job
				break
			}
		}
	}
}

// hostShares attributes a Go CPU profile's samples to the simulator's
// layers: each sample goes to the innermost repository package on its
// stack, so the runtime work a layer causes directly (allocation, the
// channel hand-offs of task switches) counts for that layer; samples with
// no repository frame (garbage collection, the scheduler) are the
// runtime's.
func hostShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.strings[p.funcNames[fn]]); l != "" {
					layer = l
					break stack
				}
			}
		}
		byLayer[layer] += v
	}
	for k := range byLayer {
		byLayer[k] /= total
	}
	return byLayer, nil
}

// layerOf maps a profiled function to its layer: the package under
// internal/ for repository code, "bench" for the benchmark's own, "" for
// the runtime and the rest of the standard library.
func layerOf(fn string) string {
	const repo = "vsystem/internal/"
	switch {
	case strings.HasPrefix(fn, repo):
		pkg, _, _ := strings.Cut(fn[len(repo):], ".")
		return pkg
	case strings.HasPrefix(fn, "main."):
		return "bench"
	}
	return ""
}

// profileData is the part of a pprof profile the attribution reads.
type profileData struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string-table index
	strings   []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

var errProto = errors.New("profile: malformed protobuf")

// decodeProfile reads the fields of the pprof protobuf (profile.proto)
// the attribution needs: samples (2), locations (4), functions (5) and
// the string table (6).
func decodeProfile(buf []byte) (*profileData, error) {
	p := &profileData{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(buf, func(field int, wire int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s profSample
			err := eachField(msg, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					return packed(w, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(w, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcNames {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// eachField walks one protobuf message, handing each field's number, wire
// type and either its varint value or its length-delimited bytes to fn.
func eachField(buf []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := binary.Uvarint(buf)
		if n <= 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(buf)
			if n <= 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			v, buf = binary.LittleEndian.Uint64(buf), buf[8:]
		case 2:
			l, n := binary.Uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			v, buf = uint64(binary.LittleEndian.Uint32(buf)), buf[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// packed decodes a repeated varint field in either encoding.
func packed(wire int, v uint64, b []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}
