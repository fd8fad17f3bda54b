package main

import (
	"bytes"
	"strings"
	"testing"

	"penguin/internal/university"
)

// TestShellRunLoop drives the whole interactive loop through a scripted
// stdin: RQL, object commands, a full translator dialog (answering the
// dialog's questions), a translated deletion, a second dialog that
// forbids every update — proving the chosen translator is the one the
// cluster routes through — and .quit.
func TestShellRunLoop(t *testing.T) {
	script := strings.Join([]string{
		"", // blank line is skipped
		"SELECT CourseID FROM COURSES WHERE Level = 'graduate' ORDER BY CourseID",
		".object omega",
		".dialog omega",
		// Dialog answers: insertion? deletion? peninsula? replacement?
		// then 5 relations' questions — answer everything yes except one
		// garbage line to exercise the re-prompt.
		"y", "y", "y", "maybe", "y",
		"y", "y", "n", // COURSES: keymod yes, dbkey yes, merge no
		"y", "y", "y", // CURRICULUM
		"y", "y", "y", // DEPARTMENT
		"y", "y", "n", // GRADES
		"y", "y", "y", // STUDENT
		".delete omega CS445",
		".stats",
		".trace 10",
		".dialog omega",
		"n", "n", "n", // insertion, deletion, replacement: all forbidden
		".delete omega CS345",
		".quit",
	}, "\n") + "\n"

	sh, out := testShellOver(t, 1, script)
	sh.run()
	sh.out.Flush()
	text := out.String()
	for _, want := range []string{
		"CS345",
		"view object omega",
		"translator chosen after 19 question(s)",
		"translated into",
		// .stats renders the update-pipeline metrics the delete produced.
		"vupdate.updates.committed",
		"vupdate.step.translate_ns.count",
		// .trace shows the per-step spans and the commit.
		"vupdate.step.translate",
		"reldb.commit",
		"translator chosen after 3 question(s)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("run loop output missing %q:\n%s", want, text)
		}
	}
	courses := sh.db().MustRelation(university.Courses)
	if courses.Has(keyOf("CS445")) {
		t.Fatal("dialog-driven delete did not run")
	}
	if !courses.Has(keyOf("CS345")) || !strings.Contains(sh.errw.(*bytes.Buffer).String(), "rejected") {
		t.Fatalf("delete ran under a translator that forbids deletion; stderr:\n%s", sh.errw.(*bytes.Buffer))
	}
}

// EOF on stdin exits the loop cleanly.
func TestShellRunLoopEOF(t *testing.T) {
	sh, _ := testShellOver(t, 1, "SELECT * FROM STAFF")
	sh.run() // no trailing newline: statement runs? bufio returns EOF with partial line
}
