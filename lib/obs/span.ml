type category =
  | Migrate
  | Trap
  | Vmexit
  | Irq
  | Stage2
  | Io
  | Sched
  | Other

let categories = [| Migrate; Trap; Vmexit; Irq; Stage2; Io; Sched; Other |]

let category_index = function
  | Migrate -> 0
  | Trap -> 1
  | Vmexit -> 2
  | Irq -> 3
  | Stage2 -> 4
  | Io -> 5
  | Sched -> 6
  | Other -> 7

let category_to_string = function
  | Migrate -> "migrate"
  | Trap -> "trap"
  | Vmexit -> "vmexit"
  | Irq -> "irq"
  | Stage2 -> "stage2"
  | Io -> "io"
  | Sched -> "sched"
  | Other -> "other"

type kind = Complete of int | Instant | Value of int

type event = {
  ts : int;
  track : string;
  cat : category;
  name : string;
  kind : kind;
}

let duration e = match e.kind with Complete d -> d | Instant | Value _ -> 0
