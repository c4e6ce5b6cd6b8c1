import os
import sys

# the tests import fflsim from this checkout's src/, ahead of any installed
# copy, and their shared helpers (oracles, test_acceptance) from this folder
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(_HERE), "src"), _HERE]
