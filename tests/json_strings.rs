//! String decoding in the vendored `serde_json`, which decodes every
//! request on the scoring service's I/O loop: arbitrary strings survive a
//! `to_string` / `from_str` round trip, and decoding one long string takes
//! linear time.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

/// Strings whose chars are drawn evenly from the four UTF-8 encoding
/// lengths, so ASCII (controls, `"` and `\` included) and 2-, 3- and 4-byte
/// chars all show up often.
fn any_string() -> impl Strategy<Value = String> {
    let char_of_any_width = prop_oneof![
        proptest::char::range('\0', '\u{7f}'),
        proptest::char::range('\u{80}', '\u{7ff}'),
        proptest::char::range('\u{800}', '\u{ffff}'),
        proptest::char::range('\u{10000}', '\u{10ffff}'),
    ];
    proptest::collection::vec(char_of_any_width, 0..33).prop_map(String::from_iter)
}

proptest! {
    #[test]
    fn arbitrary_strings_round_trip(s in any_string()) {
        let text = serde_json::to_string(&s).unwrap();
        let back: String = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(back, s);
    }
}

/// A 4 MB string of mixed-width text and escapes decodes in milliseconds
/// when the decoder is linear; a decoder that rescans the rest of the input
/// per character takes minutes. The decode runs on a worker thread under a
/// watchdog so a regression fails this test instead of hanging it.
#[test]
fn a_4mb_string_decodes_in_linear_time() {
    let unit = "plain ascii, é, 日本, 😀 and a \"quote\" \\ backslash\n";
    let original = unit.repeat(4 * 1024 * 1024 / unit.len());
    let text = serde_json::to_string(&original).unwrap();
    assert!(text.len() >= 4 * 1024 * 1024 - unit.len());

    let (done, decoded) = mpsc::channel();
    let worker = thread::spawn(move || {
        let _ = done.send(serde_json::from_str::<String>(&text));
    });
    let decoded = decoded
        .recv_timeout(Duration::from_secs(10))
        .expect("decoding a 4 MB string did not finish within 10 s")
        .expect("the string is valid JSON");
    worker.join().expect("the decoding thread panicked");
    assert_eq!(decoded, original);
}
