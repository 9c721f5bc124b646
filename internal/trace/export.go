package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/failure"
)

// An EventWriter exports events as text for other tools, one record per
// event in the order written. After a failed write it drops the rest.
type EventWriter struct {
	write func(e *failure.Event) error
	flush func() error
	err   error
}

// Write exports one event.
func (w *EventWriter) Write(e *failure.Event) {
	if w.err == nil {
		w.err = w.write(e)
	}
}

// Flush writes out what is buffered and reports the first error.
func (w *EventWriter) Flush() error {
	if w.err == nil {
		w.err = w.flush()
	}
	return w.err
}

// csvHeader is the column layout of NewCSVWriter.
var csvHeader = []string{
	"device_id", "model_id", "android", "five_g", "kind", "isp",
	"cell", "region", "dense_bs", "rat", "level", "cause",
	"start_s", "duration_s", "resolved_by", "ops_executed", "auto_fix_s",
	"trans_from_rat", "trans_from_level", "trans_to_rat", "trans_to_level",
}

// NewCSVWriter exports events to w for external plotting tools: the CSV
// header, then one row per event; transition columns are empty for
// non-transition failures.
func NewCSVWriter(w io.Writer) *EventWriter {
	cw := csv.NewWriter(w)
	flush := func() error { cw.Flush(); return cw.Error() }
	return &EventWriter{err: cw.Write(csvHeader), flush: flush, write: func(e *failure.Event) error {
		row := []string{
			strconv.FormatUint(e.DeviceID, 10),
			strconv.Itoa(int(e.ModelID)),
			strconv.Itoa(int(e.AndroidVersion)),
			strconv.FormatBool(e.FiveGCapable),
			e.Kind.String(),
			e.ISP.String(),
			e.Cell.String(),
			e.Region.String(),
			strconv.FormatBool(e.DenseBS),
			e.RAT.String(),
			strconv.Itoa(int(e.Level)),
			e.Cause.String(),
			fmt.Sprintf("%.3f", e.Start.Seconds()),
			fmt.Sprintf("%.3f", e.Duration.Seconds()),
			e.ResolvedBy.String(),
			strconv.Itoa(int(e.OpsExecuted)),
			fmt.Sprintf("%.3f", e.AutoFixTime.Seconds()),
			"", "", "", "",
		}
		if e.HasTransition {
			tr := e.Transition
			row[17] = tr.FromRAT.String()
			row[18] = strconv.Itoa(int(tr.FromLevel))
			row[19] = tr.ToRAT.String()
			row[20] = strconv.Itoa(int(tr.ToLevel))
		}
		return cw.Write(row)
	}}
}

// jsonEvent is the JSONL shape of one event: stable snake_case field
// names, optional fields omitted when zero.
type jsonEvent struct {
	DeviceID   uint64          `json:"device_id"`
	ModelID    int             `json:"model_id"`
	Android    int             `json:"android"`
	FiveG      bool            `json:"five_g"`
	Kind       string          `json:"kind"`
	ISP        string          `json:"isp"`
	Cell       string          `json:"cell"`
	Region     string          `json:"region"`
	DenseBS    bool            `json:"dense_bs"`
	RAT        string          `json:"rat"`
	Level      int             `json:"level"`
	Cause      string          `json:"cause"`
	StartS     float64         `json:"start_s"`
	DurationS  float64         `json:"duration_s"`
	ResolvedBy string          `json:"resolved_by,omitempty"`
	Ops        int             `json:"ops_executed,omitempty"`
	AutoFixS   float64         `json:"auto_fix_s,omitempty"`
	Transition *jsonTransition `json:"transition,omitempty"`
}

type jsonTransition struct {
	FromRAT   string `json:"from_rat"`
	FromLevel int    `json:"from_level"`
	ToRAT     string `json:"to_rat"`
	ToLevel   int    `json:"to_level"`
}

// NewJSONLWriter exports events to w as JSON Lines, one event per line
// (testdata/gnarly.jsonl pins the bytes).
func NewJSONLWriter(w io.Writer) *EventWriter {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	return &EventWriter{flush: bw.Flush, write: func(e *failure.Event) error {
		je := jsonEvent{
			DeviceID: e.DeviceID, ModelID: int(e.ModelID), Android: int(e.AndroidVersion),
			FiveG: e.FiveGCapable, Kind: e.Kind.String(), ISP: e.ISP.String(),
			Cell: e.Cell.String(), Region: e.Region.String(), DenseBS: e.DenseBS,
			RAT: e.RAT.String(), Level: int(e.Level), Cause: e.Cause.String(),
			StartS: e.Start.Seconds(), DurationS: e.Duration.Seconds(),
			Ops: int(e.OpsExecuted), AutoFixS: e.AutoFixTime.Seconds(),
		}
		if e.ResolvedBy != 0 {
			je.ResolvedBy = e.ResolvedBy.String()
		}
		if tr := e.Transition; e.HasTransition {
			je.Transition = &jsonTransition{tr.FromRAT.String(), int(tr.FromLevel), tr.ToRAT.String(), int(tr.ToLevel)}
		}
		return enc.Encode(je)
	}}
}

// appendJSONFloat mirrors encoding/json's float64 formatting: shortest
// representation, 'e' format only for very small or very large
// magnitudes, with the exponent's leading zero stripped (1e-09 → 1e-9).
func appendJSONFloat(dst []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const jsonHexDigits = "0123456789abcdef"

// appendJSONString mirrors encoding/json's HTML-escaping string encoder:
// quotes, backslashes, control bytes, <, >, &, U+2028/U+2029, and
// invalid UTF-8 are escaped exactly as the standard encoder does.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Other control bytes, plus <, >, & (HTML escaping).
				dst = append(dst, '\\', 'u', '0', '0', jsonHexDigits[b>>4], jsonHexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
