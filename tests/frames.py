"""Record every frame a Sim sends, for the tests that read frames.

One method fixes every frame's delivery time: Sim._delivery(dst, s_num,
s_den), which returns it as an int over the sim's D. record_frames wraps
it on one sim, so each frame is recorded once, in the order sent, whether
a Message carried it or a window sent it as two ints. The method that
called _delivery names the frame's kind: Sim.send sends the Command frames
(and any frame sent by hand), Sim._handle_keepalive_due the keep-alives
and Sim._handle_root_period the centralized servo frames.
"""

import sys
from fractions import Fraction
from typing import NamedTuple

# the frame's kind, by the name of the Sim method that sent it
KINDS = {"send": "command", "_handle_keepalive_due": "keepalive",
         "_handle_root_period": "servo"}


class Frame(NamedTuple):
    dst: object       # the child MoteState it is for
    sent: tuple       # exact (num, den) seconds, unreduced
    delivered: tuple  # exact (num, den) seconds, unreduced
    kind: str         # "command", "keepalive" or "servo"
    body: object      # a command frame's Verb, else None

    @property
    def sent_true_s(self) -> Fraction:
        return Fraction(*self.sent)

    @property
    def delivered_true_s(self) -> Fraction:
        return Fraction(*self.delivered)


def record_frames(sim):
    """The list every frame the sim sends from now on is appended to, as a
    Frame; recording builds no Fraction."""
    frames = []
    delivery, send = sim._delivery, sim.send

    def record_delivery(dst, s_num, s_den):
        d = delivery(dst, s_num, s_den)
        kind = KINDS[sys._getframe(1).f_code.co_name]
        frames.append(Frame(dst, (s_num, s_den), (d, sim._D), kind, None))
        return d

    def record_send(msg):
        send(msg)
        frames[-1] = frames[-1]._replace(body=msg.body)

    sim._delivery, sim.send = record_delivery, record_send
    return frames
