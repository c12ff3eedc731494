package bench

import (
	"fmt"
	"io"

	"repro/internal/perfmodel"
	"repro/internal/stencil"
)

// Table1 renders the server-architecture inventory (paper Table I) with
// the simulated analog of each component on plat.
func Table1(w io.Writer, plat *perfmodel.Platform) {
	fmt.Fprintln(w, "=== Table I: Server architecture (paper -> simulated analog) ===")
	for _, r := range plat.TableI() {
		fmt.Fprintf(w, "  %-24s %-42s %s\n", r.Component, r.Paper, r.Simulated)
	}
	fmt.Fprintln(w)
}

// Table2 renders the communication-only application's data sizes
// (paper Table II) for the figures' message-size sweep.
func Table2(w io.Writer) {
	fmt.Fprintln(w, "=== Table II: Communication data size of the communication-only application ===")
	fmt.Fprintf(w, "  %-12s %-36s %s\n", "Data size", "Offloading Data", "MPI Communication Data")
	for _, x := range MsgSizes() {
		fmt.Fprintf(w, "  %-12s Copy In %d B + Copy Out %d B%-6s Send %d B + Receive %d B\n",
			formatX(x), x, x, "", x, x)
	}
	fmt.Fprintln(w)
}

// Table3 renders the five-point stencil data sizes (paper Table III).
func Table3(w io.Writer) {
	pr := stencil.PaperParams(8, 56)
	fmt.Fprintln(w, "=== Table III: Communication data size of the five-point stencil ===")
	fmt.Fprintf(w, "  %-34s %d x %d\n", "Problem Size (Number of Points)", pr.Width(), pr.Width())
	fmt.Fprintf(w, "  %-34s %.1f MiB\n", "Computing Data", float64(pr.ComputeBytes())/(1<<20))
	fmt.Fprintf(w, "  %-34s Copy In %.1f KiB + Copy Out %.1f KiB per neighbor\n",
		"Offloading Data", float64(pr.HaloBytes())/1024, float64(pr.HaloBytes())/1024)
	fmt.Fprintf(w, "  %-34s Send %.1f KiB + Receive %.1f KiB per neighbor\n",
		"MPI Communication Data", float64(pr.HaloBytes())/1024, float64(pr.HaloBytes())/1024)
	fmt.Fprintln(w)
}
