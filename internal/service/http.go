package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"jetstream"
)

// Handler builds the service's HTTP surface:
//
//	POST   /v1/tenants                 create a tenant (CreateRequest body)
//	GET    /v1/tenants                 list tenant names
//	GET    /v1/tenants/{name}          describe one tenant (TenantInfo)
//	DELETE /v1/tenants/{name}          delete a tenant and its durable state
//	POST   /v1/tenants/{name}/batch    apply one batch (WireBatch body)
//	GET    /v1/tenants/{name}/state    converged state (StateResponse)
//	GET    /v1/tenants/{name}/metrics  the tenant's own metrics registry
//	GET    /v1/stats                   aggregate StatsResponse
//	GET    /metrics                    aggregate service metrics
//	GET    /healthz                    liveness probe
//
// Every non-2xx response is a JSON ErrorResponse. A full admission queue
// answers 429 with a Retry-After hint so well-behaved clients back off. A
// request body holds exactly one JSON value of at most maxBodyBytes: anything
// but whitespace behind it is a 400, a longer body a 413.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/tenants", s.handleCreate)
	mux.HandleFunc("GET /v1/tenants", s.handleList)
	mux.HandleFunc("GET /v1/tenants/{name}", s.handleInfo)
	mux.HandleFunc("DELETE /v1/tenants/{name}", s.handleDelete)
	mux.HandleFunc("POST /v1/tenants/{name}/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/tenants/{name}/state", s.handleState)
	mux.HandleFunc("GET /v1/tenants/{name}/metrics", s.handleTenantMetrics)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.Handle("GET /metrics", s.reg.Handler())
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError maps service and ingest errors onto HTTP statuses. Batch
// validation failures carry their per-update issue list so the client can
// see exactly which updates were invalid.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var resp ErrorResponse
	resp.Error = err.Error()
	var be *jetstream.BatchError
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &be):
		code = http.StatusBadRequest
		resp.Issues = be.Issues
	case errors.As(err, &tooLarge):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrInvalid):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrExists):
		code = http.StatusConflict
	case errors.Is(err, ErrBusy), errors.Is(err, ErrTenantLimit):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrClosed):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

// maxBodyBytes bounds every request body. A 1<<22-vertex tenant declared
// with an explicit edge list fits; nothing a client sends in one batch comes
// close.
const maxBodyBytes = 64 << 20

// limitBody returns r's body capped at maxBodyBytes; a declared length
// beyond the cap fails before a byte is read.
func limitBody(w http.ResponseWriter, r *http.Request) (io.Reader, error) {
	if r.ContentLength > maxBodyBytes {
		return nil, fmt.Errorf("%w: body: %w", ErrInvalid, &http.MaxBytesError{Limit: maxBodyBytes})
	}
	return http.MaxBytesReader(w, r.Body, maxBodyBytes), nil
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := limitBody(w, r)
	if err != nil {
		return err
	}
	if err := decodeStrict(body, v); err != nil {
		return fmt.Errorf("%w: body: %w", ErrInvalid, err)
	}
	return nil
}

// readBatch reads a batch body in one go — into a buffer sized from the
// declared length, so the common case is a single allocation — and scans it.
func readBatch(w http.ResponseWriter, r *http.Request) (jetstream.Batch, error) {
	body, err := limitBody(w, r)
	if err != nil {
		return jetstream.Batch{}, err
	}
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(body); err != nil {
		return jetstream.Batch{}, fmt.Errorf("%w: body: %w", ErrInvalid, err)
	}
	return decodeBatch(buf.Bytes())
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if err := decodeBody(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if _, err := s.Create(req); err != nil {
		writeError(w, err)
		return
	}
	info, err := s.Info(req.Name)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"tenants": s.Names()})
}

func (s *Service) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.Info(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Service) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Delete(r.PathValue("name")); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	b, err := readBatch(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	res, batches, err := s.ingest(r.PathValue("name"), b)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{
		Batches:  batches,
		Cycles:   res.Cycles,
		Events:   res.Stats.EventsProcessed,
		Repaired: res.Repaired,
		Expired:  res.Expired,
		Issues:   res.Issues,
	})
}

func (s *Service) handleState(w http.ResponseWriter, r *http.Request) {
	state, batches, err := s.State(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	b64, crc := EncodeState(state)
	writeJSON(w, http.StatusOK, StateResponse{
		Vertices: len(state),
		Batches:  batches,
		State:    b64,
		CRC64:    crc,
	})
}

func (s *Service) handleTenantMetrics(w http.ResponseWriter, r *http.Request) {
	t, err := s.tenant(r.PathValue("name"))
	if err != nil {
		writeError(w, err)
		return
	}
	t.metricsHandler().ServeHTTP(w, r)
}

// metricsHandler reads the tenant's metrics handler under its lock; serving
// it needs no lock.
func (t *Tenant) metricsHandler() http.Handler {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sys.MetricsHandler()
}
