package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/failure"
)

// csvHeader is the column layout of WriteCSV.
var csvHeader = []string{
	"device_id", "model_id", "android", "five_g", "kind", "isp",
	"cell", "region", "dense_bs", "rat", "level", "cause",
	"start_s", "duration_s", "resolved_by", "ops_executed", "auto_fix_s",
	"trans_from_rat", "trans_from_level", "trans_to_rat", "trans_to_level",
}

// WriteCSV exports the dataset for external plotting tools. One row per
// event; transition columns are empty for non-transition failures.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	var werr error
	d.Each(func(e *failure.Event) {
		if werr != nil {
			return
		}
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
		werr = cw.Write(row)
	})
	if werr != nil {
		return werr
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSONL exports the dataset as JSON Lines: stable snake_case field
// names, one event per line. Lines are built with direct byte appends
// into a pooled buffer instead of a per-event struct fed to a reflective
// json.Encoder; the output is byte-identical to the old encoder (same
// field order, omitempty semantics, float formatting, string escaping,
// trailing newline — pinned by TestJSONLGolden).
func (d *Dataset) WriteJSONL(w io.Writer) error {
	bp := getScratch(1 << 15)
	defer putScratch(bp)
	buf := (*bp)[:0]
	var werr error
	d.Each(func(e *failure.Event) {
		if werr != nil {
			return
		}
		buf = appendJSONEvent(buf, e)
		if len(buf) >= 1<<15 {
			_, werr = w.Write(buf)
			buf = buf[:0]
		}
	})
	*bp = buf
	if werr != nil {
		return werr
	}
	if len(buf) > 0 {
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendJSONEvent appends one JSONL line for e, replicating the
// encoding/json output for the legacy jsonEvent struct byte for byte.
func appendJSONEvent(dst []byte, e *failure.Event) []byte {
	dst = append(dst, `{"device_id":`...)
	dst = strconv.AppendUint(dst, e.DeviceID, 10)
	dst = append(dst, `,"model_id":`...)
	dst = strconv.AppendInt(dst, int64(e.ModelID), 10)
	dst = append(dst, `,"android":`...)
	dst = strconv.AppendInt(dst, int64(e.AndroidVersion), 10)
	dst = append(dst, `,"five_g":`...)
	dst = strconv.AppendBool(dst, e.FiveGCapable)
	dst = append(dst, `,"kind":`...)
	dst = appendJSONString(dst, e.Kind.String())
	dst = append(dst, `,"isp":`...)
	dst = appendJSONString(dst, e.ISP.String())
	dst = append(dst, `,"cell":`...)
	dst = appendJSONString(dst, e.Cell.String())
	dst = append(dst, `,"region":`...)
	dst = appendJSONString(dst, e.Region.String())
	dst = append(dst, `,"dense_bs":`...)
	dst = strconv.AppendBool(dst, e.DenseBS)
	dst = append(dst, `,"rat":`...)
	dst = appendJSONString(dst, e.RAT.String())
	dst = append(dst, `,"level":`...)
	dst = strconv.AppendInt(dst, int64(e.Level), 10)
	dst = append(dst, `,"cause":`...)
	dst = appendJSONString(dst, e.Cause.String())
	dst = append(dst, `,"start_s":`...)
	dst = appendJSONFloat(dst, e.Start.Seconds())
	dst = append(dst, `,"duration_s":`...)
	dst = appendJSONFloat(dst, e.Duration.Seconds())
	if e.ResolvedBy != 0 {
		if s := e.ResolvedBy.String(); s != "" {
			dst = append(dst, `,"resolved_by":`...)
			dst = appendJSONString(dst, s)
		}
	}
	if e.OpsExecuted != 0 {
		dst = append(dst, `,"ops_executed":`...)
		dst = strconv.AppendInt(dst, int64(e.OpsExecuted), 10)
	}
	if s := e.AutoFixTime.Seconds(); s != 0 {
		dst = append(dst, `,"auto_fix_s":`...)
		dst = appendJSONFloat(dst, s)
	}
	if e.HasTransition {
		tr := e.Transition
		dst = append(dst, `,"transition":{"from_rat":`...)
		dst = appendJSONString(dst, tr.FromRAT.String())
		dst = append(dst, `,"from_level":`...)
		dst = strconv.AppendInt(dst, int64(tr.FromLevel), 10)
		dst = append(dst, `,"to_rat":`...)
		dst = appendJSONString(dst, tr.ToRAT.String())
		dst = append(dst, `,"to_level":`...)
		dst = strconv.AppendInt(dst, int64(tr.ToLevel), 10)
		dst = append(dst, '}')
	}
	return append(dst, '}', '\n')
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
