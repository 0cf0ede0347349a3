(** [Audit_mgmt.Site.decode_op], [Audit_mgmt.Quarantine.decode_op] and
    the shard manifest's catalogue decoder as they were when each kept its
    own bounds-checked u32/u64/string reader, kept as oracles for the
    decoders built on {!Durable.Frame}'s reader: on any string, the new
    decoder must return exactly what its reference returns. *)

val site_decode_op : string -> Audit_mgmt.Site.op option
val quarantine_decode_op : string -> Audit_mgmt.Quarantine.op option

val manifest_decode_payload : string -> Durable.Manifest.t option
(** The payload of the manifest's one catalogue frame. *)
