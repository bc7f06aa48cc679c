"""The paper's dual tripod gait, spelled out apart from hexsync.gait.

Six legs, 0-2 on the left and 3-5 on the right, form two tripods: T1
(legs 0, 2, 4) and T2 (legs 1, 3, 5). Each leg has a hip servo (its leg
number) and a knee servo (leg + 6). M1 drives the hips, at phases 0 and 2;
M2 drives the knees, at phases 1 and 3. At the quarter phases T1 steps
down, back, up and forward (30, 25, -30 and -25 degrees), and T2 runs the
same cycle half a period later. Tests compare hexsync's gait table with this spelling.
"""

from fractions import Fraction

from hexsync.gait import Controller

TRIPODS = ((0, 2, 4), (1, 3, 5))  # T1, T2
HIP, KNEE = "hip", "knee"
QUARTER_PHASES = tuple(Fraction(phase, 4) for phase in range(4))
JOINT_AT_PHASE = (HIP, KNEE, HIP, KNEE)
CONTROLLER_OF = {HIP: Controller.M1, KNEE: Controller.M2}
T1_CYCLE_DEG = (30.0, 25.0, -30.0, -25.0)  # down, back, up, forward


def servo_of(joint, leg):
    return leg if joint == HIP else leg + 6


def tripod_angle(tripod, phase):
    """The angle a tripod commands at a phase: T2 is half a period (two
    phases) behind T1."""
    return T1_CYCLE_DEG[(phase - 2 * tripod) % 4]


def paper_rows(phase):
    """The (controller, servo_id, angle_deg) commands at a phase, T1's legs
    first and then T2's, each tripod in leg order."""
    joint = JOINT_AT_PHASE[phase]
    return [(CONTROLLER_OF[joint], servo_of(joint, leg), tripod_angle(tripod, phase))
            for tripod, legs in enumerate(TRIPODS) for leg in legs]
