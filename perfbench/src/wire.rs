//! What the load generator may look at in a response while it is timing.
//!
//! Decoding a response line costs milliseconds (the vendored JSON decoder
//! re-validates the rest of the buffer for every string character), so
//! inside the timed loop the generator only reads the request id, which
//! the server always writes first: `{"id":<digits>,...`.

const PREFIX: &[u8] = b"{\"id\":";

/// The request id at the front of a response line, or `None` when the line
/// does not start with `{"id":<digits>`.
pub fn response_id(line: &[u8]) -> Option<u64> {
    let digits = line.strip_prefix(PREFIX)?;
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    if end == 0 || end > 20 {
        return None;
    }
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}

/// The line after its id: equal for every answer to the same request body.
pub fn after_id(line: &[u8]) -> &[u8] {
    let Some(digits) = line.strip_prefix(PREFIX) else {
        return line;
    };
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    &digits[end..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfspeak_service::protocol::{encode_line, EvaluationScore, ScoreResponse};

    #[test]
    fn reads_the_id_of_success_and_error_responses() {
        let ok = encode_line(&ScoreResponse::evaluated(42, Vec::new()));
        assert_eq!(response_id(ok.as_bytes()), Some(42));
        let shed = encode_line(&ScoreResponse::overloaded(7, 256));
        assert_eq!(response_id(shed.as_bytes()), Some(7));
        let internal = encode_line(&ScoreResponse::internal_error(1 << 40, "boom"));
        assert_eq!(response_id(internal.as_bytes()), Some(1 << 40));
        let late = encode_line(&ScoreResponse::deadline_exceeded(0, 5, 9));
        assert_eq!(response_id(late.as_bytes()), Some(0));
    }

    #[test]
    fn ignores_ids_inside_the_payload() {
        let failure = encode_line(&ScoreResponse::failure(3, "bad field \"id\":99"));
        assert_eq!(response_id(failure.as_bytes()), Some(3));
        let evaluation = EvaluationScore {
            bleu: 1.0,
            chrf: 2.0,
            matched: vec!["{\"id\":123".to_owned()],
            missing: Vec::new(),
            extra: Vec::new(),
            hallucinated: Vec::new(),
            call_recall: 0.5,
            call_precision: 0.5,
        };
        let line = encode_line(&ScoreResponse::evaluated(11, vec![evaluation]));
        assert!(line.contains("\\\"id\\\":123"));
        assert_eq!(response_id(line.as_bytes()), Some(11));
    }

    #[test]
    fn rejects_lines_without_a_leading_id() {
        assert_eq!(response_id(b""), None);
        assert_eq!(response_id(b"{\"ok\":true,\"id\":4}"), None);
        assert_eq!(response_id(b"{\"id\":,"), None);
        assert_eq!(response_id(b"{\"id\":-1,"), None);
        assert_eq!(response_id(b"{\"id\":99999999999999999999999,"), None);
    }

    #[test]
    fn after_id_strips_only_the_id() {
        let a = encode_line(&ScoreResponse::evaluated(5, Vec::new()));
        let b = encode_line(&ScoreResponse::evaluated(123456, Vec::new()));
        assert_eq!(after_id(a.as_bytes()), after_id(b.as_bytes()));
        assert!(after_id(a.as_bytes()).starts_with(b",\"ok\":true"));
    }
}
