//! The one rule of every answering host here. A question is `(qname,
//! qtype, qclass)`, and these hosts serve class `IN` alone, keyed by
//! `(qname, qtype)`: so a host answers only a plain `IN` query
//! ([`Message::is_plain_in_query`]) and sends any other query its
//! [`refusal`], never looked up, forwarded, coalesced or cached.

use dnswire::{Message, MessageBuilder, Rcode};
use netsim::Payload;

/// Decode the datagram `payload` as a query: `Ok` when it is a plain `IN`
/// query, `Err` holding its [`refusal`] when it is any other query, and
/// `None` — no reply — for bytes that are not a query at all.
pub(crate) fn admit(payload: &[u8]) -> Option<Result<Message, Payload>> {
    let query = Message::decode(payload).ok().filter(|m| !m.is_response())?;
    if !query.is_plain_in_query() {
        return Some(Err(refusal(&query)));
    }
    Some(Ok(query))
}

/// The REFUSED response to `query`: its ID, opcode, RD bit and question
/// section echoed, RA clear, nothing else.
pub(crate) fn refusal(query: &Message) -> Payload {
    let response = MessageBuilder::response_to(query).rcode(Rcode::Refused);
    response.build().encode().into()
}
