package server

import (
	"errors"
	"net/http"

	"blowfish"
	"blowfish/internal/service"
)

// APIError is the structured error body: {"error": {"code", "message"}}.
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

func (e *APIError) Error() string { return e.Code + ": " + e.Message }

// httpStatus maps an error code to its response status. Every code in
// service.Codes has an explicit case (enforced by the errcode analyzer);
// the default covers uncoded fallback strings from writeError callers.
func httpStatus(code string) int {
	switch code {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnknownPolicy, CodeUnknownDataset, CodeUnknownSession, CodeUnknownStream:
		return http.StatusNotFound
	case CodeBudgetExhausted, CodePolicyInUse, CodeDatasetInUse:
		return http.StatusConflict
	case CodeDomainMismatch:
		return http.StatusUnprocessableEntity
	case CodeDurability, CodeInternal:
		return http.StatusInternalServerError
	case CodeQueueFull:
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}

func writeError(w http.ResponseWriter, code, message string) {
	writeJSON(w, httpStatus(code), errorEnvelope{Error: APIError{Code: code, Message: message}})
}

// writeServiceError renders a service-layer failure. Coded errors carry
// their own status mapping; a queue_full rejection additionally gets a
// Retry-After hint (seconds, coarse — the queue drains in milliseconds
// under a healthy writer, so the minimum legal value 1 is the hint;
// clients treat it as "back off, then retry"). Uncoded errors fall back
// to the library mapping.
func writeServiceError(w http.ResponseWriter, err error) {
	var se *service.Error
	if errors.As(err, &se) {
		if se.Code == CodeQueueFull {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, se.Code, se.Message)
		return
	}
	writeLibError(w, err)
}

// writeLibError maps a blowfish library error onto the structured error
// vocabulary: budget exhaustion and domain mismatches get their dedicated
// codes, everything else is a bad request.
func writeLibError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, blowfish.ErrBudgetExceeded):
		writeError(w, CodeBudgetExhausted, err.Error())
	case errors.Is(err, blowfish.ErrDomainMismatch):
		writeError(w, CodeDomainMismatch, err.Error())
	default:
		writeError(w, CodeBadRequest, err.Error())
	}
}
