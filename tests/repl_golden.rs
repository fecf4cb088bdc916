//! The REPL transcript, pinned byte for byte: bindings, `:vars`, bare
//! terms with their step counts, `:trace`, `:prove`, error lines and
//! `:reset` over `specs/symboltable.adt`. The script and its expected
//! output live in `tests/fixtures/repl/`; CI also pipes the script
//! through the `adt repl` binary and diffs against the same file.

use std::io::Cursor;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn symboltable_transcript_is_byte_identical() {
    let spec = adt_dsl::parse(&fixture("specs/symboltable.adt")).unwrap();
    let mut input = Cursor::new(fixture("tests/fixtures/repl/symboltable.script"));
    let mut output = Vec::new();
    adt_cli::repl::run_repl(&spec, &mut input, &mut output).unwrap();
    let transcript = String::from_utf8(output).unwrap();
    let expected = fixture("tests/fixtures/repl/symboltable.out");
    assert!(
        transcript == expected,
        "transcript differs from tests/fixtures/repl/symboltable.out:\n{transcript}"
    );
}
