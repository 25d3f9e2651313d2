package cli

import (
	"encoding/json"
	"fmt"
	"os"

	"dregex/internal/validate"
)

// DocReport is the per-document outcome the corpus validators print.
type DocReport struct {
	Path   string                     `json:"path"`
	Valid  bool                       `json:"valid"`
	Errors []validate.ValidationError `json:"errors,omitempty"`
	Error  string                     `json:"error,omitempty"`
}

// Reports turns validation results into the reports PrintReports renders.
func Reports(results []validate.Result) []DocReport {
	reports := make([]DocReport, len(results))
	for i, r := range results {
		reports[i] = DocReport{Path: r.Name, Valid: r.Valid(), Errors: r.Errors}
		if r.Err != nil {
			reports[i].Error = r.Err.Error()
		}
	}
	return reports
}

// PrintReports renders validation reports to stdout — an indented JSON
// array, or the text form (quiet suppresses per-document "valid" lines;
// the summary always prints) — and returns the number of invalid
// documents. This is the one report surface shared by xmlvalid and
// xsdvalid, so output format and exit semantics cannot drift apart.
func PrintReports(reports []DocReport, jsonOut, quiet bool) (invalid int, err error) {
	for _, r := range reports {
		if !r.Valid {
			invalid++
		}
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return invalid, enc.Encode(reports)
	}
	for _, r := range reports {
		if r.Valid {
			if !quiet {
				fmt.Printf("%s: valid\n", r.Path)
			}
			continue
		}
		// A document-level error (malformed XML, say) can coexist with
		// violations found before it; report both, like JSON mode.
		if r.Error != "" {
			fmt.Printf("%s: error: %s\n", r.Path, r.Error)
		} else {
			fmt.Printf("%s: %d error(s)\n", r.Path, len(r.Errors))
		}
		for _, e := range r.Errors {
			fmt.Printf("  %s\n", e)
		}
	}
	fmt.Printf("%d document(s), %d valid, %d invalid\n",
		len(reports), len(reports)-invalid, invalid)
	return invalid, nil
}
