type t = Span.event Ring.t

let create ?capacity () = Ring.create ?capacity ()

let complete t ~track ~cat ~name ~ts ~dur =
  if dur < 0 then invalid_arg "Tracer.complete: negative duration";
  Ring.push t { Span.ts; track; cat; name; kind = Span.Complete dur }

let instant t ~track ~cat ~name ~ts =
  Ring.push t { Span.ts; track; cat; name; kind = Span.Instant }

let value t ~track ~cat ~name ~ts ~value =
  Ring.push t { Span.ts; track; cat; name; kind = Span.Value value }

let events = Ring.to_list
let dropped = Ring.dropped
