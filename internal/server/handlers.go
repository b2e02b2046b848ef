package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"blowfish/internal/service"
)

// decodeJSON parses a request body into v, rejecting unknown fields so
// misspelled parameters fail loudly instead of silently defaulting.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, CodeBadRequest, "invalid JSON body: "+err.Error())
		return false
	}
	return true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": s.svc.SessionCount(),
		"streams":  s.svc.StreamCount(),
	})
}

// The resource endpoints share five call shapes, one handler
// constructor each; routes() binds them to the service's methods.

// create decodes a Req body, creates through call and answers 201.
func create[Req, Resp any](call func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := call(req)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, resp)
	}
}

// get answers the resource named by the {id} path value.
func get[Resp any](call func(id string) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		resp, err := call(r.PathValue("id"))
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// list answers a list envelope; listing cannot fail.
func list[Resp any](call func() Resp) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { writeJSON(w, http.StatusOK, call()) }
}

// remove deletes the resource named by {id} and answers 204.
func remove(call func(id string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := call(r.PathValue("id")); err != nil {
			writeServiceError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}
}

// sessionRelease decodes a Req body, draws a release from the session
// named by {id} and writes it with its release encoder.
func sessionRelease[Req, Resp any](call func(id string, req Req) (Resp, error), encode func(*bodyBuf, Resp)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if !decodeJSON(w, r, &req) {
			return
		}
		resp, err := call(r.PathValue("id"), req)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		writeRelease(w, resp, encode)
	}
}

// handleCheckpoint triggers a manual checkpoint. An in-memory service has
// nothing to checkpoint; that stays a client error, not a durability one.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	stats, err := s.svc.Checkpoint()
	switch {
	case errors.Is(err, service.ErrNotDurable):
		writeError(w, CodeBadRequest, "server is not durable (no data directory configured)")
	case err != nil:
		writeError(w, CodeDurability, err.Error())
	default:
		writeJSON(w, http.StatusOK, stats)
	}
}
