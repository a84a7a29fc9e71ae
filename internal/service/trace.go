package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	v1 "branchcorr/internal/api/v1"
	"branchcorr/internal/corpus"
	"branchcorr/internal/trace"
	"branchcorr/internal/workloads"
)

// resolvedTrace is a request's trace after resolution: the content
// address it is served under plus the trace, which holds only its
// packed columns, so repeated requests skip decoding and packing.
type resolvedTrace struct {
	key string
	tr  *trace.Trace
}

func (rt resolvedTrace) info() v1.TraceInfo {
	return v1.NewTraceInfo(rt.key, rt.tr.Packed())
}

// traceCache is a small FIFO cache of decoded traces, keyed by content
// address. Concurrent misses may decode the same trace twice; that is
// benign (both decode to equal traces) and keeps the cache lock off the
// decode path.
type traceCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*trace.Trace
	order   []string
}

func newTraceCache(capacity int) *traceCache {
	return &traceCache{cap: capacity, entries: make(map[string]*trace.Trace)}
}

func (c *traceCache) get(key string) (*trace.Trace, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, ok := c.entries[key]
	return tr, ok
}

func (c *traceCache) put(key string, tr *trace.Trace) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	c.entries[key] = tr
	c.order = append(c.order, key)
	for len(c.order) > c.cap {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
}

// resolve turns a wire trace ref into a decoded trace: uploaded traces
// by content address, workload traces by (name, length, generator
// revision) through the corpus store, with the in-memory cache in
// front of both. Resolution never touches the request's metrics
// registry — corpus and cache traffic depends on what earlier requests
// did, so it may only show up in the process registry.
func (s *Server) resolve(ref v1.TraceRef) (resolvedTrace, error) {
	if err := ref.Validate(); err != nil {
		return resolvedTrace{}, badRequest(err)
	}

	if ref.Key != "" {
		if tr, ok := s.traces.get(ref.Key); ok {
			return resolvedTrace{key: ref.Key, tr: tr}, nil
		}
		if !s.store.Has(ref.Key) {
			return resolvedTrace{}, notFound(fmt.Errorf("trace %q not in the corpus", ref.Key))
		}
		tr, err := s.store.LoadTrace(ref.Key)
		if err != nil {
			return resolvedTrace{}, internalErr(err)
		}
		s.traces.put(ref.Key, tr)
		return resolvedTrace{key: ref.Key, tr: tr}, nil
	}

	w, err := workloads.ByName(ref.Workload)
	if err != nil {
		return resolvedTrace{}, badRequest(err)
	}
	n := ref.N
	if n == 0 {
		n = s.cfg.DefaultTraceN
	}
	if n > s.cfg.MaxTraceN {
		return resolvedTrace{}, tooLarge(fmt.Errorf("trace length %d exceeds the service limit %d", n, s.cfg.MaxTraceN))
	}
	key := corpus.Key(w.Name(), n, workloads.Revision)
	if tr, ok := s.traces.get(key); ok {
		return resolvedTrace{key: key, tr: tr}, nil
	}
	tr, err := s.store.GetTrace(key, func() *trace.Trace { return w.Generate(n) })
	if err != nil {
		return resolvedTrace{}, internalErr(err)
	}
	s.traces.put(key, tr)
	return resolvedTrace{key: key, tr: tr}, nil
}

// decodeUpload sniffs an uploaded trace body — record-stream BTR1 or
// columnar BPK1 — and returns its packed view plus its content address:
// the digest of the canonical BPK1 encoding, so the same trace uploaded
// in either format (or with any chunking) lands on one key.
func decodeUpload(body []byte) (*trace.Packed, string, error) {
	if len(body) < 4 {
		return nil, "", badRequest(fmt.Errorf("trace body too short (%d bytes)", len(body)))
	}
	var pt *trace.Packed
	switch string(body[:4]) {
	case "BTR1":
		tr, err := trace.Read(bytes.NewReader(body))
		if err != nil {
			return nil, "", badRequest(err)
		}
		pt = tr.Packed()
	case "BPK1":
		var err error
		pt, _, err = corpus.Decode(bytes.NewReader(body))
		if err != nil {
			return nil, "", badRequest(err)
		}
	default:
		return nil, "", badRequest(fmt.Errorf("unrecognized trace magic %q (want BTR1 or BPK1)", body[:4]))
	}
	var canon bytes.Buffer
	if err := corpus.Encode(&canon, pt, corpus.DefaultChunkLen); err != nil {
		return nil, "", internalErr(err)
	}
	sum := sha256.Sum256(canon.Bytes())
	return pt, hex.EncodeToString(sum[:]), nil
}
