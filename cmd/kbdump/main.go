// Command kbdump prints the knowledge base — the paper's publicly-available
// artifact of 24 unique patterns — as JSON on stdout: the bytes of the
// catalog file embedded in internal/kb (builtin/catalog.json), which
// pattern.ReadAll loads. With -assignment it prints one builtin assignment's
// embedded definition file (builtin/assignments/<id>.json), the format
// semfeedd hot-loads from its KB directory, so it serves as a seed or
// fixture for that directory.
//
// Usage:
//
//	kbdump > knowledge_base.json
//	kbdump -list
//	kbdump -dot seq-odd-access | dot -Tpng -o pattern.png
//	kbdump -assignment assignment1 > kbdir/assignment1.json   # semfeedd KB file
package main

import (
	"flag"
	"fmt"
	"os"

	"semfeed/internal/kb"
)

func main() {
	list := flag.Bool("list", false, "list pattern names and descriptions instead of JSON")
	dot := flag.String("dot", "", "render one pattern as Graphviz DOT (Figures 4-6 style)")
	assignment := flag.String("assignment", "", "export one built-in assignment as a semfeedd definition file")
	flag.Parse()

	if *assignment != "" {
		data, ok := kb.AssignmentJSON(*assignment)
		if !ok {
			fmt.Fprintf(os.Stderr, "kbdump: unknown assignment %q\n", *assignment)
			os.Exit(2)
		}
		write(data)
		return
	}

	if *dot != "" {
		for _, name := range kb.Names() {
			if name == *dot {
				fmt.Print(kb.Pattern(name).DOT())
				return
			}
		}
		for _, name := range kb.ExtensionNames() {
			if name == *dot {
				fmt.Print(kb.Extension(name).DOT())
				return
			}
		}
		fmt.Fprintf(os.Stderr, "kbdump: unknown pattern %q\n", *dot)
		os.Exit(2)
	}

	if *list {
		for _, name := range kb.Names() {
			p := kb.Pattern(name)
			fmt.Printf("%-24s %s\n", name, p.Source.Description)
		}
		fmt.Println("-- extensions (Section VII future work) --")
		for _, name := range kb.ExtensionNames() {
			p := kb.Extension(name)
			fmt.Printf("%-24s %s\n", name, p.Source.Description)
		}
		return
	}
	write(kb.CatalogJSON())
}

func write(data []byte) {
	if _, err := os.Stdout.Write(data); err != nil {
		fmt.Fprintf(os.Stderr, "kbdump: %v\n", err)
		os.Exit(1)
	}
}
